// Differential tests of sparse-storage construction: CsfTensor trees and
// CooTensor::coalesce() against comparison-sort oracles kept here, on
// seeded shapes (orders 2-6, unit extents, primes, extents past one and
// two 16-bit digits) and sizes (empty, single entry, sparse, near-dense).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "parpp/tensor/coo_tensor.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/util/rng.hpp"

namespace parpp {
namespace {

using tensor::CooTensor;
using tensor::CsfLayout;
using tensor::CsfTensor;

// ---------------------------------------------------------------------------
// Oracles: comparison sorts and growth-by-push_back fills.

/// Comparison of entry ids by their coordinates in `modes`, most
/// significant first.
auto less_on(const CooTensor& coo, const std::vector<int>& modes) {
  return [&coo, &modes](index_t a, index_t b) {
    for (const int m : modes)
      if (coo.index(a, m) != coo.index(b, m))
        return coo.index(a, m) < coo.index(b, m);
    return false;
  };
}

/// A tree built the straightforward way: comparison-sort the entries in the
/// tree's mode order, then append one node per new coordinate prefix.
CsfTensor::Tree oracle_tree(const CooTensor& coo, std::vector<int> order) {
  const auto n = static_cast<std::size_t>(coo.order());
  CsfTensor::Tree tree;
  tree.mode_order = std::move(order);
  const auto& mo = tree.mode_order;
  std::vector<index_t> perm(static_cast<std::size_t>(coo.nnz()));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), less_on(coo, mo));
  tree.fids.resize(n);
  tree.fptr.resize(n - 1);
  for (std::size_t p = 0; p < perm.size(); ++p) {
    std::size_t open = 0;
    if (p > 0)
      while (open + 1 < n &&
             coo.index(perm[p], mo[open]) == coo.index(perm[p - 1], mo[open]))
        ++open;
    for (std::size_t l = open; l < n; ++l) {
      if (l + 1 < n)
        tree.fptr[l].push_back(static_cast<index_t>(tree.fids[l + 1].size()));
      tree.fids[l].push_back(coo.index(perm[p], mo[l]));
    }
    tree.vals.push_back(coo.value(perm[p]));
  }
  for (std::size_t l = 0; l + 1 < n; ++l)
    tree.fptr[l].push_back(static_cast<index_t>(tree.fids[l + 1].size()));

  // Tiles: level-1 nodes grouped until they hold kTileLeafTarget leaves,
  // then the root fibers each tile intersects.
  const auto leaf_start = [&](index_t k) {
    for (std::size_t l = 1; l + 1 < n; ++l)
      k = tree.fptr[l][static_cast<std::size_t>(k)];
    return k;
  };
  const auto n1 = static_cast<index_t>(tree.fids[1].size());
  tree.tile_ptr.push_back(0);
  for (index_t k = 0, first = 0; k < n1; ++k) {
    if (leaf_start(k + 1) - leaf_start(first) >= CsfTensor::kTileLeafTarget) {
      tree.tile_ptr.push_back(k + 1);
      first = k + 1;
    }
  }
  if (tree.tile_ptr.back() != n1) tree.tile_ptr.push_back(n1);
  const auto& root_ptr = tree.fptr[0];
  for (std::size_t t = 0; t + 1 < tree.tile_ptr.size(); ++t) {
    index_t r = 0;
    while (root_ptr[static_cast<std::size_t>(r) + 1] <= tree.tile_ptr[t]) ++r;
    index_t re = r;
    while (re < static_cast<index_t>(tree.fids[0].size()) &&
           root_ptr[static_cast<std::size_t>(re)] < tree.tile_ptr[t + 1])
      ++re;
    tree.tile_root.push_back(r);
    tree.tile_root_end.push_back(re);
  }
  return tree;
}

/// Mode orders of a layout's trees: root first, the rest ascending; under
/// kHalf tree m ends in leaf mode n-1-m (unless that is m itself).
std::vector<std::vector<int>> expected_orders(int n, CsfLayout layout) {
  std::vector<std::vector<int>> orders;
  const int trees = layout == CsfLayout::kAllModes ? n : (n + 1) / 2;
  for (int m = 0; m < trees; ++m) {
    const int leaf =
        layout == CsfLayout::kHalf && n - 1 - m != m ? n - 1 - m : -1;
    std::vector<int> order{m};
    for (int k = 0; k < n; ++k)
      if (k != m && k != leaf) order.push_back(k);
    if (leaf >= 0) order.push_back(leaf);
    orders.push_back(order);
  }
  return orders;
}

struct Entry {
  std::vector<index_t> idx;
  double value;
};

/// Coalesce the straightforward way: stable comparison sort (duplicates in
/// push order), sum runs of equal coordinates, drop zero sums.
std::vector<Entry> oracle_coalesce(std::vector<Entry> entries) {
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.idx < b.idx; });
  std::vector<Entry> out;
  for (std::size_t p = 0; p < entries.size();) {
    Entry merged = entries[p++];
    while (p < entries.size() && entries[p].idx == merged.idx)
      merged.value += entries[p++].value;
    if (merged.value != 0.0) out.push_back(merged);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seeded cases.

struct Case {
  std::string name;
  std::vector<index_t> shape;
  std::vector<Entry> entries;  ///< push order, duplicates allowed
};

/// Coordinate pools per mode: the whole range for short modes, otherwise a
/// few values that share their low 16-bit digit (and some that do not), so
/// entries collide on prefixes and every digit pass decides some order.
std::vector<std::vector<index_t>> coordinate_pools(
    const std::vector<index_t>& shape, Rng& rng) {
  std::vector<std::vector<index_t>> pools;
  for (const index_t e : shape) {
    std::vector<index_t> pool;
    if (e <= 64) {
      pool.resize(static_cast<std::size_t>(e));
      std::iota(pool.begin(), pool.end(), index_t{0});
    } else {
      const index_t base = rng.uniform_index(e);
      for (index_t k = 0; k < 4; ++k)
        pool.push_back((base + k * (index_t{1} << 16)) % e);
      pool.push_back((base + (index_t{1} << 32)) % e);
      pool.push_back(rng.uniform_index(e));
      pool.push_back(e - 1);
    }
    pools.push_back(pool);
  }
  return pools;
}

std::vector<Entry> random_entries(const std::vector<index_t>& shape,
                                  index_t count, Rng& rng) {
  const auto pools = coordinate_pools(shape, rng);
  std::vector<Entry> entries;
  for (index_t k = 0; k < count; ++k) {
    Entry e{{}, rng.uniform(0.5, 1.5)};
    for (const auto& pool : pools) {
      const index_t pick = rng.uniform_index(static_cast<index_t>(pool.size()));
      e.idx.push_back(pool[static_cast<std::size_t>(pick)]);
    }
    entries.push_back(e);
  }
  return entries;
}

/// Every coordinate of a small shape, each kept with probability 0.9.
std::vector<Entry> near_dense_entries(const std::vector<index_t>& shape,
                                      Rng& rng) {
  std::vector<Entry> entries;
  std::vector<index_t> idx(shape.size(), 0);
  for (bool more = true; more;) {
    if (rng.uniform() < 0.9) entries.push_back({idx, rng.uniform(0.5, 1.5)});
    more = false;
    for (std::size_t m = shape.size(); m-- > 0;) {
      if (++idx[m] < shape[m]) {
        more = true;
        break;
      }
      idx[m] = 0;
    }
  }
  // Push order must not matter: reverse it.
  std::reverse(entries.begin(), entries.end());
  return entries;
}

std::vector<Case> seeded_cases() {
  const std::pair<const char*, std::vector<index_t>> kinds[] = {
      {"primes", {31, 37, 41, 43, 47, 53}},
      {"units", {1, 5, 1, 3, 1, 2}},
      // Past one digit (70001 > 65536) and past two (4294967311 > 2^32).
      {"wide", {70001, 3, 4294967311LL, 131071, 2, 65537}},
  };
  const std::vector<index_t> small{3, 4, 2, 3, 2, 2};
  std::vector<Case> cases;
  Rng rng(20260417);
  for (int n = 2; n <= 6; ++n) {
    const auto first = [n](const std::vector<index_t>& v) {
      return std::vector<index_t>(v.begin(), v.begin() + n);
    };
    const std::string order = "order" + std::to_string(n);
    for (const auto& [kind, extents] : kinds) {
      const auto shape = first(extents);
      for (const index_t count : {0, 1, 40, 5000}) {
        const std::string name =
            order + "/" + kind + "/push" + std::to_string(count);
        cases.push_back({name, shape, random_entries(shape, count, rng)});
      }
    }
    const auto near = n == 2 ? std::vector<index_t>{40, 60} : first(small);
    cases.push_back(
        {order + "/near-dense", near, near_dense_entries(near, rng)});
  }
  return cases;
}

const char* layout_name(CsfLayout layout) {
  return layout == CsfLayout::kAllModes ? " all-modes" : " half";
}

/// Bitwise comparison of a coalesced tensor with the oracle's entry list.
void expect_entries(const CooTensor& coo, const std::vector<Entry>& want) {
  ASSERT_EQ(coo.nnz(), static_cast<index_t>(want.size()));
  for (index_t e = 0; e < coo.nnz(); ++e) {
    const Entry& w = want[static_cast<std::size_t>(e)];
    for (int m = 0; m < coo.order(); ++m)
      ASSERT_EQ(coo.index(e, m), w.idx[static_cast<std::size_t>(m)]);
    ASSERT_EQ(coo.value(e), w.value) << "entry " << e;
  }
}

CooTensor to_coo(const Case& c) {
  CooTensor coo(c.shape);
  for (const Entry& e : c.entries) coo.push(e.idx, e.value);
  return coo;
}

// ---------------------------------------------------------------------------

TEST(CsfConstruction, TreesMatchOracleAndLevelsHaveExactSize) {
  index_t most_tiles = 0;
  for (const Case& c : seeded_cases()) {
    CooTensor coo = to_coo(c);
    coo.coalesce();
    const int n = coo.order();
    for (const CsfLayout layout : {CsfLayout::kAllModes, CsfLayout::kHalf}) {
      SCOPED_TRACE(c.name + layout_name(layout));
      const CsfTensor csf(coo, {.layout = layout});
      const auto orders = expected_orders(n, layout);
      ASSERT_EQ(csf.tree_count(), static_cast<int>(orders.size()));
      for (int t = 0; t < csf.tree_count(); ++t) {
        const CsfTensor::Tree& got = csf.walk_for(t).tree[0];
        ASSERT_EQ(got.mode_order, orders[static_cast<std::size_t>(t)]);
        const CsfTensor::Tree want = oracle_tree(coo, got.mode_order);
        EXPECT_EQ(got.fptr, want.fptr) << "tree " << t;
        EXPECT_EQ(got.fids, want.fids) << "tree " << t;
        EXPECT_EQ(got.vals, want.vals) << "tree " << t;
        EXPECT_EQ(got.tile_ptr, want.tile_ptr) << "tree " << t;
        EXPECT_EQ(got.tile_root, want.tile_root) << "tree " << t;
        EXPECT_EQ(got.tile_root_end, want.tile_root_end) << "tree " << t;
        index_t internal = 0;
        for (std::size_t l = 1; l + 1 < want.fids.size(); ++l)
          internal += static_cast<index_t>(want.fids[l].size());
        EXPECT_EQ(got.internal_nodes, internal) << "tree " << t;
        most_tiles = std::max(most_tiles, got.tile_count());
        // The resident trees carry no growth slack: a solve's memory is the
        // pattern itself, not up to twice it.
        for (const auto& level : got.fids)
          EXPECT_EQ(level.capacity(), level.size()) << "tree " << t;
        for (const auto& level : got.fptr)
          EXPECT_EQ(level.capacity(), level.size()) << "tree " << t;
        EXPECT_EQ(got.vals.capacity(), got.vals.size()) << "tree " << t;
      }
    }
  }
  EXPECT_GT(most_tiles, 1) << "no case spans several tiles";
}

TEST(CooTensorSortedOrder, MatchesStableSortOnAnyKeyModes) {
  // Key modes in arbitrary order and subsets: ties keep storage order.
  for (const Case& c : seeded_cases()) {
    SCOPED_TRACE(c.name);
    const CooTensor coo = to_coo(c);  // uncoalesced: duplicates present
    const int n = coo.order();
    std::vector<int> modes(static_cast<std::size_t>(n));
    std::iota(modes.begin(), modes.end(), 0);
    std::reverse(modes.begin(), modes.end());
    for (std::size_t keys = 0; keys <= modes.size(); ++keys) {
      const std::vector<int> key_modes(
          modes.begin(), modes.begin() + static_cast<std::ptrdiff_t>(keys));
      std::vector<index_t> want(static_cast<std::size_t>(coo.nnz()));
      std::iota(want.begin(), want.end(), index_t{0});
      std::stable_sort(want.begin(), want.end(), less_on(coo, key_modes));
      EXPECT_EQ(coo.sorted_order(key_modes), want) << keys << " key modes";
    }
  }
}

TEST(CooTensorCoalesce, MatchesStableSortOracle) {
  for (const Case& c : seeded_cases()) {
    SCOPED_TRACE(c.name);
    CooTensor coo = to_coo(c);
    coo.coalesce();
    expect_entries(coo, oracle_coalesce(c.entries));
  }
}

TEST(CooTensorCoalesce, ShuffledDuplicatesAndCancellingPairsMatchOracle) {
  // Values whose sum depends on the order they are added in, pushed in a
  // shuffled order with several copies per coordinate, plus pairs that
  // cancel exactly: merged sums must be bitwise the stable-sort result.
  for (const std::vector<index_t>& shape :
       {std::vector<index_t>{7, 5, 3}, std::vector<index_t>{70001, 2, 9},
        std::vector<index_t>{4294967311LL, 65537}}) {
    Rng rng(99 + static_cast<std::uint64_t>(shape.size()));
    std::vector<Entry> entries = random_entries(shape, 600, rng);
    for (std::size_t k = 0; k < 200; ++k) {
      Entry e = entries[k];
      e.value = rng.uniform(-1.0, 1.0) * 1e8;  // sums round by add order
      entries.push_back(e);
    }
    for (std::size_t k = 0; k < 40; ++k) {
      Entry e = entries[k * 3];
      e.value = 3.25;
      entries.push_back(e);
      e.value = -3.25;
      entries.push_back(e);
    }
    // A coordinate of its own whose two copies cancel to exactly zero.
    std::vector<std::vector<index_t>> coords;
    for (const Entry& e : entries) coords.push_back(e.idx);
    std::sort(coords.begin(), coords.end());
    Entry gone{{}, 0.5};
    do {
      gone.idx.clear();
      for (const index_t e : shape) gone.idx.push_back(rng.uniform_index(e));
    } while (std::binary_search(coords.begin(), coords.end(), gone.idx));
    entries.push_back(gone);
    gone.value = -0.5;
    entries.push_back(gone);
    for (std::size_t k = entries.size(); k > 1; --k) {
      const index_t j = rng.uniform_index(static_cast<index_t>(k));
      std::swap(entries[k - 1], entries[static_cast<std::size_t>(j)]);
    }

    CooTensor coo(shape);
    for (const Entry& e : entries) coo.push(e.idx, e.value);
    coo.coalesce();
    expect_entries(coo, oracle_coalesce(entries));
    coords.erase(std::unique(coords.begin(), coords.end()), coords.end());
    EXPECT_EQ(coo.nnz(), static_cast<index_t>(coords.size()));  // gone left
  }
}

}  // namespace
}  // namespace parpp
