// Sparse block distributions over the processor grid (the sparse siblings
// of extract_local_block).
//
// Nonzeros are partitioned by per-mode boundary arrays — entry ownership
// follows the same padded BlockDist geometry the dense path and the factor
// distribution use, so the medium-grained collective pattern of Algorithm 3
// (slice All-Gather, Reduce-Scatter of slice-shaped MTTKRP contributions)
// carries over unchanged. Each rank's block becomes a local CsfTensor with
// block-relative coordinates; blocks that own no nonzeros still get a valid
// (empty) CSF tensor whose MTTKRP contributes zeros.
//
// Two geometries are offered behind the same DistProblem interface:
//
//   * SparseBlockDist — the grid's uniform hyper-rectangular blocks. On
//     skewed tensors (power-law fibers) the blocks holding the head slices
//     carry most of the nonzeros while other ranks idle.
//   * BalancedSparseDist — nnz-balanced boundaries: per mode, a
//     chains-on-chains partition of the slice nnz histogram (exact minimal
//     bottleneck via parametric search) equalizes per-slab nnz, which on
//     independently-skewed modes equalizes per-block nnz. The padded local
//     extent grows to the widest slab, so slice collectives exchange more
//     words; the trade wins whenever the critical-path MTTKRP dominates.
//
// Setup cost: every nonzero is assigned to its owner block in one shared
// bucketing pass over the entry list (plus one pass for the balanced
// histograms), not one full scan per rank — make_local() then hands each
// rank its prebuilt coalesced bucket. partition_passes() exposes the pass
// count so tests can pin the O(nnz) setup.
#pragma once

#include <mutex>
#include <vector>

#include "parpp/dist/local_problem.hpp"
#include "parpp/tensor/coo_tensor.hpp"
#include "parpp/tensor/csf_tensor.hpp"

namespace parpp::dist {

class SparseBlockDist : public DistProblem {
 public:
  /// Non-owning view of a coalesced COO tensor (must outlive this and
  /// every local problem made from it).
  explicit SparseBlockDist(const tensor::CooTensor& coo);

  /// Non-owning view of already-compressed storage (must outlive this and
  /// every local problem made from it). A one-block grid reads `t` in
  /// place; any other geometry first reconstructs the coalesced entry list
  /// from `t`'s mode-0 fiber tree.
  explicit SparseBlockDist(const tensor::CsfTensor& t);

  // coo_ may point into owned_, so default copies/moves would leave the
  // new object aimed at the source's storage.
  SparseBlockDist(const SparseBlockDist&) = delete;
  SparseBlockDist& operator=(const SparseBlockDist&) = delete;

  [[nodiscard]] const std::vector<index_t>& global_shape() const override;

  /// Hands out this rank's bucket of the shared partition as a local
  /// CsfTensor with block-relative coordinates. The first caller for a
  /// given geometry runs the single O(nnz) bucketing pass (serialized);
  /// concurrent callers with the same geometry only read their bucket.
  [[nodiscard]] std::unique_ptr<LocalProblem> make_local(
      const BlockDist& dist, const std::vector<int>& coords) const override;

  /// Number of full entry-list bucketing passes run so far: one per
  /// distinct BlockDist geometry, regardless of the rank count (the old
  /// per-rank scan was O(nprocs * nnz); this pins O(nnz)).
  [[nodiscard]] std::size_t partition_passes() const;

 protected:
  /// The entry list, flattened from the CSF input on first use. Call it
  /// before any rank runs or with mu_ held.
  [[nodiscard]] const tensor::CooTensor& coo() const;

 private:
  /// The shared bucketing pass (call with mu_ held).
  void rebuild_buckets(const BlockDist& dist) const;

  const tensor::CsfTensor* csf_ = nullptr;  ///< set by the CSF constructor
  mutable tensor::CooTensor owned_;  ///< csf_ flattened by coo()
  mutable const tensor::CooTensor* coo_ = nullptr;

  // Bucket cache for the current geometry, built lazily under mu_ by the
  // first make_local of a run, read by every rank, and dropped once all
  // blocks have been fetched (each coordinate asks exactly once per run,
  // so holding the copy longer would waste O(nnz) memory). Rebuilt if a
  // later call arrives with a different geometry (e.g. another grid).
  mutable std::mutex mu_;
  mutable std::vector<std::vector<index_t>> cached_bounds_;
  mutable std::vector<tensor::CooTensor> buckets_;  ///< row-major by coords
  mutable std::vector<char> taken_;  ///< buckets already moved out
  mutable index_t fetched_ = 0;
  mutable std::size_t partition_passes_ = 0;
};

/// nnz-balanced sparse distribution: same bucketing machinery, non-uniform
/// chains-on-chains boundaries. Slice nnz histograms are accumulated once
/// at construction (O(nnz), from the entry list, so a CSF input is
/// flattened there); each make_block_dist() call only partitions
/// the histograms for the requested grid (O(sum extents * log nnz)).
class BalancedSparseDist final : public SparseBlockDist {
 public:
  explicit BalancedSparseDist(const tensor::CooTensor& coo);
  explicit BalancedSparseDist(const tensor::CsfTensor& t);

  [[nodiscard]] BlockDist make_block_dist(
      const mpsim::ProcessorGrid& grid) const override;

 private:
  void build_histograms();

  std::vector<std::vector<index_t>> slice_nnz_;  ///< per mode, per slice
};

/// Chains-on-chains partition of `loads` into `parts` contiguous chunks
/// minimizing the bottleneck chunk load (parametric search over the exact
/// optimum). Returns parts+1 monotone boundaries with front 0 and back
/// loads.size(); trailing chunks may be empty. Exposed for tests.
[[nodiscard]] std::vector<index_t> chains_on_chains(
    const std::vector<index_t>& loads, int parts);

/// Factory for the partition axis: wraps `t` in the matching DistProblem.
[[nodiscard]] std::unique_ptr<DistProblem> make_sparse_problem(
    const tensor::CsfTensor& t, PartitionKind partition);

}  // namespace parpp::dist
