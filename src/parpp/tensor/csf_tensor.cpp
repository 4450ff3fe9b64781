#include "parpp/tensor/csf_tensor.hpp"

#include <cmath>
#include <numeric>
#include <span>

namespace parpp::tensor {

namespace {

void build_tiles(CsfTensor::Tree& tree, int n);

CsfTensor::Tree build_tree(const CooTensor& coo, std::vector<int> mode_order) {
  const auto n = static_cast<std::size_t>(coo.order());
  const auto nnz = static_cast<std::size_t>(coo.nnz());

  CsfTensor::Tree tree;
  tree.mode_order = std::move(mode_order);
  const auto& order = tree.mode_order;

  // Entry order for this tree: lexicographic in the permuted coordinates.
  // The coalesced COO is sorted in the identity order with distinct keys,
  // so entries that tie on the levels above the order's ascending tail are
  // already sorted by that tail: only those levels need counting-sort
  // passes (none for the identity, one, keyed on the root, for every
  // kAllModes tree). Distinct keys make the order unique, so the trees do
  // not depend on the sort that produced it.
  std::size_t sorted_from = n - 1;
  while (sorted_from > 0 && order[sorted_from - 1] < order[sorted_from])
    --sorted_from;
  const std::vector<index_t> perm =
      coo.sorted_order(std::span(order).first(sorted_from));

  // First level whose coordinate differs from the previous entry's: that
  // node and everything below it open fresh.
  const auto open_from = [&](std::size_t p) -> std::size_t {
    if (p == 0) return 0;
    const index_t e = perm[p], prev = perm[p - 1];
    std::size_t l = 0;
    while (l + 1 < n && coo.index(e, order[l]) == coo.index(prev, order[l]))
      ++l;
    return l;
  };

  // Count every level's nodes first so each array is allocated once at its
  // final size: the resident trees carry no growth slack.
  std::vector<std::size_t> nodes(n, 0);
  for (std::size_t p = 0; p < nnz; ++p) ++nodes[open_from(p)];
  std::partial_sum(nodes.begin(), nodes.end(), nodes.begin());
  tree.fids.resize(n);
  tree.fptr.resize(n - 1);
  for (std::size_t l = 0; l < n; ++l) {
    tree.fids[l].reserve(nodes[l]);
    if (l + 1 < n) tree.fptr[l].reserve(nodes[l] + 1);
  }
  tree.vals.reserve(nnz);

  for (std::size_t p = 0; p < nnz; ++p) {
    const index_t e = perm[p];
    for (std::size_t l = open_from(p); l < n; ++l) {
      // New node's children start where level l+1 currently ends.
      if (l + 1 < n)
        tree.fptr[l].push_back(static_cast<index_t>(tree.fids[l + 1].size()));
      tree.fids[l].push_back(coo.index(e, order[l]));
    }
    tree.vals.push_back(coo.value(e));
  }
  for (std::size_t l = 0; l + 1 < n; ++l)
    tree.fptr[l].push_back(static_cast<index_t>(tree.fids[l + 1].size()));
  for (std::size_t l = 1; l + 1 < n; ++l)
    tree.internal_nodes += static_cast<index_t>(nodes[l]);
  build_tiles(tree, static_cast<int>(n));
  return tree;
}

/// Mode order for root tree `m` of the kAllModes layout: root first, the
/// rest ascending.
std::vector<int> all_modes_order(int n, int m) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(m);
  for (int k = 0; k < n; ++k)
    if (k != m) order.push_back(k);
  return order;
}

/// Mode order for tree `m` of the kHalf layout: rooted at m, leaf n-1-m,
/// remaining modes ascending in between — each tree serves its root mode
/// (upward walk) and its leaf mode (downward scatter walk). The middle
/// tree of an odd order would have leaf == root; it falls back to the
/// plain ascending order and serves only its root.
std::vector<int> half_order(int n, int m) {
  const int leaf = n - 1 - m;
  if (leaf == m) return all_modes_order(n, m);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(m);
  for (int k = 0; k < n; ++k)
    if (k != m && k != leaf) order.push_back(k);
  order.push_back(leaf);
  return order;
}

/// Splits the level-1 node array into tiles of ~kTileLeafTarget leaf
/// entries and records which root fibers each tile intersects. Level-1
/// granularity (rather than whole root fibers) is what lets the tiled
/// MTTKRP walk scale on short root modes.
void build_tiles(CsfTensor::Tree& tree, int n) {
  const auto n1 = static_cast<index_t>(tree.fids[1].size());
  // Leaf offset of level-1 node k: compose the child pointers down to the
  // leaf level (identity for order 2, where level 1 *is* the leaf level).
  const auto leaf_start = [&](index_t k) {
    index_t cur = k;
    for (int l = 1; l <= n - 2; ++l)
      cur = tree.fptr[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
    return cur;
  };

  tree.tile_ptr.push_back(0);
  index_t acc = 0;
  index_t prev = leaf_start(0);
  for (index_t k = 0; k < n1; ++k) {
    const index_t next = leaf_start(k + 1);
    acc += next - prev;
    prev = next;
    if (acc >= CsfTensor::kTileLeafTarget) {
      tree.tile_ptr.push_back(k + 1);
      acc = 0;
    }
  }
  if (tree.tile_ptr.back() != n1) tree.tile_ptr.push_back(n1);

  const auto& root_ptr = tree.fptr[0];
  const index_t roots = tree.root_count();
  index_t r = 0;
  for (index_t t = 0; t + 1 < static_cast<index_t>(tree.tile_ptr.size()); ++t) {
    const index_t k0 = tree.tile_ptr[static_cast<std::size_t>(t)];
    const index_t k1 = tree.tile_ptr[static_cast<std::size_t>(t) + 1];
    while (root_ptr[static_cast<std::size_t>(r) + 1] <= k0) ++r;
    tree.tile_root.push_back(r);
    index_t re = r;
    while (re < roots && root_ptr[static_cast<std::size_t>(re)] < k1) ++re;
    tree.tile_root_end.push_back(re);
  }
}

}  // namespace

CsfTensor::CsfTensor(const CooTensor& coo) : CsfTensor(coo, CsfOptions{}) {}

CsfTensor::CsfTensor(const CooTensor& coo, const CsfOptions& options)
    : shape_(coo.shape()),
      nnz_(coo.nnz()),
      dense_size_(coo.dense_size()),
      layout_(options.layout) {
  PARPP_CHECK(order() >= 2, "CsfTensor: tensor order must be >= 2");
  PARPP_CHECK(coo.coalesced(),
              "CsfTensor: COO input must be coalesced (sorted, no duplicate "
              "coordinates) — call CooTensor::coalesce() first");
  squared_norm_ = coo.squared_norm();
  build(coo);
}

void CsfTensor::build(const CooTensor& coo) {
  const int n = order();
  if (layout_ == CsfLayout::kAllModes) {
    trees_.reserve(static_cast<std::size_t>(n));
    for (int m = 0; m < n; ++m)
      trees_.push_back(build_tree(coo, all_modes_order(n, m)));
  } else {
    const int half = (n + 1) / 2;
    trees_.reserve(static_cast<std::size_t>(half));
    for (int m = 0; m < half; ++m)
      trees_.push_back(build_tree(coo, half_order(n, m)));
  }
}

CsfTensor::Walk CsfTensor::walk_for(int mode) const {
  PARPP_CHECK(mode >= 0 && mode < order(), "walk_for: bad mode ", mode);
  if (mode < tree_count())
    return {&trees_[static_cast<std::size_t>(mode)], mode, /*leaf=*/false};
  // kHalf upper-half mode: served as the leaf level of tree n-1-mode.
  const int ti = order() - 1 - mode;
  const Walk w{&trees_[static_cast<std::size_t>(ti)], ti, /*leaf=*/true};
  PARPP_ASSERT(w.tree->mode_order.back() == mode,
               "walk_for: tree ", ti, " does not end in mode ", mode);
  return w;
}

index_t CsfTensor::pattern_words() const {
  index_t words = 0;
  for (const Tree& t : trees_) {
    for (const auto& v : t.fptr) words += static_cast<index_t>(v.size());
    for (const auto& v : t.fids) words += static_cast<index_t>(v.size());
  }
  return words;
}

CooTensor CsfTensor::to_coo() const {
  CooTensor coo(shape_);
  coo.reserve(nnz_);
  const Tree& tree = trees_.front();  // mode order is the identity
  PARPP_ASSERT(tree.mode_order.front() == 0, "to_coo: tree 0 not rooted at 0");
  const int n = order();
  std::vector<index_t> idx(static_cast<std::size_t>(n), 0);
  // Depth-first walk emitting one entry per leaf; tree 0's identity mode
  // order (both layouts) makes the output lexicographically sorted, so
  // coalesce() below only restores the invariant flag (no re-sort work, no
  // duplicates to merge).
  auto walk = [&](auto&& self, int lv, index_t begin, index_t end) -> void {
    const auto& fids = tree.fids[static_cast<std::size_t>(lv)];
    for (index_t k = begin; k < end; ++k) {
      idx[static_cast<std::size_t>(
          tree.mode_order[static_cast<std::size_t>(lv)])] =
          fids[static_cast<std::size_t>(k)];
      if (lv == n - 1) {
        coo.push(idx, tree.vals[static_cast<std::size_t>(k)]);
      } else {
        const auto& fptr = tree.fptr[static_cast<std::size_t>(lv)];
        self(self, lv + 1, fptr[static_cast<std::size_t>(k)],
             fptr[static_cast<std::size_t>(k + 1)]);
      }
    }
  };
  walk(walk, 0, 0, tree.root_count());
  coo.coalesce();
  return coo;
}

void CsfValsF32::sync(const CsfTensor& t) {
  trees.resize(static_cast<std::size_t>(t.tree_count()));
  for (int m = 0; m < t.tree_count(); ++m) {
    const auto& vals = t.walk_for(m).tree->vals;
    auto& dst = trees[static_cast<std::size_t>(m)];
    dst.resize(vals.size());
    for (std::size_t i = 0; i < vals.size(); ++i)
      dst[i] = static_cast<float>(vals[i]);
  }
}

double CsfTensor::frobenius_norm() const { return std::sqrt(squared_norm_); }

double CsfTensor::density() const {
  return dense_size_ > 0.0 ? static_cast<double>(nnz_) / dense_size_ : 0.0;
}

}  // namespace parpp::tensor
