// Unit tests: src/mm/page_store (residency, dirtiness, LRU eviction).

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/mm/page_store.h"

namespace ntrace {
namespace {

int node_a;
int node_b;

TEST(PageMath, IndexAndSpan) {
  EXPECT_EQ(PageIndex(0), 0u);
  EXPECT_EQ(PageIndex(4095), 0u);
  EXPECT_EQ(PageIndex(4096), 1u);
  EXPECT_EQ(PageSpan(0, 0), 0u);
  EXPECT_EQ(PageSpan(0, 1), 1u);
  EXPECT_EQ(PageSpan(0, 4096), 1u);
  EXPECT_EQ(PageSpan(0, 4097), 2u);
  EXPECT_EQ(PageSpan(4095, 2), 2u);  // Straddles a boundary.
  EXPECT_EQ(PageSpan(8192, 8192), 2u);
}

TEST(PageStore, InsertAndResidency) {
  PageStore store(16);
  EXPECT_TRUE(store.Insert(&node_a, 0, SimTime()));
  EXPECT_FALSE(store.Insert(&node_a, 0, SimTime()));  // Already there.
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  EXPECT_FALSE(store.IsResident(&node_a, 1));
  EXPECT_FALSE(store.IsResident(&node_b, 0));
  EXPECT_EQ(store.resident_pages(), 1u);
}

TEST(PageStore, DirtyLifecycle) {
  PageStore store(16);
  store.Insert(&node_a, 3, SimTime());
  EXPECT_FALSE(store.IsDirty(&node_a, 3));
  store.MarkDirty(&node_a, 3, SimTime());
  EXPECT_TRUE(store.IsDirty(&node_a, 3));
  EXPECT_EQ(store.dirty_pages(), 1u);
  store.MarkClean(&node_a, 3);
  EXPECT_FALSE(store.IsDirty(&node_a, 3));
  EXPECT_EQ(store.dirty_pages(), 0u);
  EXPECT_TRUE(store.IsResident(&node_a, 3));  // Clean, still cached.
}

TEST(PageStore, MarkDirtyCreatesEntry) {
  PageStore store(16);
  store.MarkDirty(&node_a, 7, SimTime());
  EXPECT_TRUE(store.IsResident(&node_a, 7));
  EXPECT_TRUE(store.IsDirty(&node_a, 7));
}

TEST(PageStore, DirtyPagesSortedPerNode) {
  PageStore store(64);
  for (uint64_t p : {9u, 2u, 5u}) {
    store.MarkDirty(&node_a, p, SimTime());
  }
  store.MarkDirty(&node_b, 1, SimTime());
  const std::vector<uint64_t> dirty = store.DirtyPagesOf(&node_a);
  EXPECT_EQ(dirty, (std::vector<uint64_t>{2, 5, 9}));
  EXPECT_EQ(store.DirtyCountOf(&node_a), 3u);
  EXPECT_EQ(store.DirtyCountOf(&node_b), 1u);
}

TEST(PageStore, LruEvictsColdestCleanPage) {
  PageStore store(3);
  store.Insert(&node_a, 0, SimTime());
  store.Insert(&node_a, 1, SimTime());
  store.Insert(&node_a, 2, SimTime());
  store.Touch(&node_a, 0);  // Page 1 becomes the coldest.
  store.Insert(&node_a, 3, SimTime());
  EXPECT_EQ(store.resident_pages(), 3u);
  EXPECT_FALSE(store.IsResident(&node_a, 1));
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_a, 3));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(PageStore, EvictionSkipsDirtyPages) {
  PageStore store(3);
  store.MarkDirty(&node_a, 0, SimTime());
  store.MarkDirty(&node_a, 1, SimTime());
  store.Insert(&node_a, 2, SimTime());
  store.Insert(&node_a, 3, SimTime());  // Must evict page 2 (only clean one).
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_a, 1));
  EXPECT_FALSE(store.IsResident(&node_a, 2));
  EXPECT_TRUE(store.IsResident(&node_a, 3));
}

TEST(PageStore, AllDirtyOvercommitsInsteadOfCrashing) {
  PageStore store(2);
  store.MarkDirty(&node_a, 0, SimTime());
  store.MarkDirty(&node_a, 1, SimTime());
  store.MarkDirty(&node_a, 2, SimTime());
  EXPECT_EQ(store.resident_pages(), 3u);  // Over budget, all retained.
  EXPECT_EQ(store.dirty_pages(), 3u);
}

TEST(PageStore, NewestInsertionNeverEvictedImmediately) {
  PageStore store(2);
  store.MarkDirty(&node_a, 0, SimTime());
  store.MarkDirty(&node_a, 1, SimTime());
  // Everything dirty: the fresh clean insert must survive this call.
  store.Insert(&node_a, 2, SimTime());
  EXPECT_TRUE(store.IsResident(&node_a, 2));
}

TEST(PageStore, PinnedPagesSurviveEviction) {
  PageStore store(2);
  store.Insert(&node_a, 0, SimTime());
  store.Pin(&node_a, 0);
  store.Insert(&node_a, 1, SimTime());
  store.Insert(&node_a, 2, SimTime());
  EXPECT_TRUE(store.IsResident(&node_a, 0));
  store.Unpin(&node_a, 0);
  store.Insert(&node_a, 3, SimTime());
  store.Insert(&node_a, 4, SimTime());
  EXPECT_FALSE(store.IsResident(&node_a, 0));
}

TEST(PageStore, PurgeNodeDropsOnlyThatNode) {
  PageStore store(64);
  store.Insert(&node_a, 0, SimTime());
  store.MarkDirty(&node_a, 1, SimTime());
  store.MarkDirty(&node_a, 2, SimTime());
  store.Insert(&node_b, 0, SimTime());
  const uint64_t discarded = store.PurgeNode(&node_a);
  EXPECT_EQ(discarded, 2u);  // Two dirty pages died unwritten.
  EXPECT_FALSE(store.IsResident(&node_a, 0));
  EXPECT_TRUE(store.IsResident(&node_b, 0));
  EXPECT_EQ(store.dirty_pages(), 0u);
}

TEST(PageStore, PurgeEmptyNodeIsNoop) {
  PageStore store(8);
  EXPECT_EQ(store.PurgeNode(&node_a), 0u);
}

TEST(PageStore, TruncateDropsTail) {
  PageStore store(64);
  for (uint64_t p = 0; p < 10; ++p) {
    store.Insert(&node_a, p, SimTime());
  }
  store.MarkDirty(&node_a, 9, SimTime());
  const uint64_t discarded = store.TruncateNode(&node_a, 5);
  EXPECT_EQ(discarded, 1u);
  for (uint64_t p = 0; p < 5; ++p) {
    EXPECT_TRUE(store.IsResident(&node_a, p));
  }
  for (uint64_t p = 5; p < 10; ++p) {
    EXPECT_FALSE(store.IsResident(&node_a, p));
  }
}

TEST(PageStore, UnboundedCapacityNeverEvicts) {
  PageStore store(0);
  for (uint64_t p = 0; p < 10000; ++p) {
    store.Insert(&node_a, p, SimTime());
  }
  EXPECT_EQ(store.resident_pages(), 10000u);
  EXPECT_EQ(store.evictions(), 0u);
}

// Property sweep: random op sequences keep counters consistent.
class PageStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageStorePropertyTest, CountersStayConsistent) {
  Rng rng(GetParam());
  PageStore store(32);
  uint64_t known_dirty = 0;
  (void)known_dirty;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, 63));
    const int op = static_cast<int>(rng.UniformInt(0, 4));
    switch (op) {
      case 0:
        store.Insert(&node_a, page, SimTime());
        break;
      case 1:
        store.MarkDirty(&node_a, page, SimTime());
        break;
      case 2:
        store.MarkClean(&node_a, page);
        break;
      case 3:
        store.Touch(&node_a, page);
        break;
      case 4:
        if (rng.Bernoulli(0.02)) {
          store.PurgeNode(&node_a);
        }
        break;
    }
    // Invariants: dirty count equals the per-node sets; dirty <= resident.
    EXPECT_EQ(store.dirty_pages(), store.DirtyCountOf(&node_a));
    EXPECT_LE(store.dirty_pages(), store.resident_pages());
    // Every reported dirty page is resident.
    for (uint64_t p : store.DirtyPagesOf(&node_a)) {
      EXPECT_TRUE(store.IsResident(&node_a, p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageStorePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// Reference page cache built from ordered containers: residency and flags
// in a std::map, dirty pages in std::sets, and recency as a stamp-ordered
// map. It applies the store's LRU rule literally: new pages and touches
// become most recent; dirtying, cleaning and pinning leave recency alone;
// only inserting a new page evicts, walking from the least recent page,
// skipping dirty and pinned ones and never taking the most recent one.
class ReferenceStore {
 public:
  explicit ReferenceStore(uint64_t capacity) : capacity_(capacity) {}

  bool Insert(const void* node, uint64_t page) {
    const Key key{node, page};
    if (entries_.count(key) != 0) {
      Touch(node, page);
      return false;
    }
    Add(key, /*dirty=*/false);
    return true;
  }

  void MarkDirty(const void* node, uint64_t page) {
    const Key key{node, page};
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      Add(key, /*dirty=*/true);
      return;
    }
    it->second.dirty = true;
    dirty_[node].insert(page);
  }

  void MarkClean(const void* node, uint64_t page) {
    auto it = entries_.find(Key{node, page});
    if (it != entries_.end() && it->second.dirty) {
      it->second.dirty = false;
      dirty_[node].erase(page);
    }
  }

  void Touch(const void* node, uint64_t page) {
    auto it = entries_.find(Key{node, page});
    if (it != entries_.end()) {
      by_recency_.erase(it->second.stamp);
      it->second.stamp = ++clock_;
      by_recency_[it->second.stamp] = it->first;
    }
  }

  void SetPinned(const void* node, uint64_t page, bool pinned) {
    auto it = entries_.find(Key{node, page});
    if (it != entries_.end()) {
      it->second.pinned = pinned;
    }
  }

  // Drops the node's pages at index >= first (0 = the whole node); returns
  // how many were dirty.
  uint64_t DropFrom(const void* node, uint64_t first) {
    uint64_t dirty = 0;
    for (auto it = entries_.lower_bound(Key{node, first});
         it != entries_.end() && it->first.first == node;) {
      dirty += it->second.dirty ? 1 : 0;
      by_recency_.erase(it->second.stamp);
      dirty_[node].erase(it->first.second);
      it = entries_.erase(it);
    }
    return dirty;
  }

  bool IsResident(const void* node, uint64_t page) const {
    return entries_.count(Key{node, page}) != 0;
  }
  uint64_t resident_pages() const { return entries_.size(); }
  uint64_t dirty_pages() const {
    uint64_t n = 0;
    for (const auto& [node, pages] : dirty_) {
      n += pages.size();
    }
    return n;
  }
  uint64_t evictions() const { return evictions_; }
  std::vector<uint64_t> DirtyPagesOf(const void* node) const {
    auto it = dirty_.find(node);
    return it == dirty_.end() ? std::vector<uint64_t>{}
                              : std::vector<uint64_t>(it->second.begin(), it->second.end());
  }

 private:
  using Key = std::pair<const void*, uint64_t>;
  struct Entry {
    bool dirty = false;
    bool pinned = false;
    uint64_t stamp = 0;
  };

  void Add(const Key& key, bool dirty) {
    Entry& e = entries_[key];
    e.dirty = dirty;
    e.stamp = ++clock_;
    by_recency_[e.stamp] = key;
    if (dirty) {
      dirty_[key.first].insert(key.second);
    }
    if (capacity_ == 0) {
      return;
    }
    const uint64_t newest = std::prev(by_recency_.end())->first;
    for (auto it = by_recency_.begin(); entries_.size() > capacity_ && it->first != newest;) {
      auto eit = entries_.find(it->second);
      if (eit->second.dirty || eit->second.pinned) {
        ++it;
        continue;
      }
      entries_.erase(eit);
      it = by_recency_.erase(it);
      ++evictions_;
    }
  }

  uint64_t capacity_;
  uint64_t clock_ = 0;
  uint64_t evictions_ = 0;
  std::map<Key, Entry> entries_;
  std::map<uint64_t, Key> by_recency_;
  std::map<const void*, std::set<uint64_t>> dirty_;
};

int parity_nodes[3];

// Compares every observable the store exposes against the reference.
// `pages_to_probe` bounds the residency sweep per node.
void ExpectSameState(const PageStore& store, const ReferenceStore& ref, uint64_t pages_to_probe) {
  ASSERT_EQ(store.resident_pages(), ref.resident_pages());
  ASSERT_EQ(store.dirty_pages(), ref.dirty_pages());
  ASSERT_EQ(store.evictions(), ref.evictions());
  for (const int& n : parity_nodes) {
    ASSERT_EQ(store.DirtyPagesOf(&n), ref.DirtyPagesOf(&n));
    ASSERT_EQ(store.DirtyCountOf(&n), ref.DirtyPagesOf(&n).size());
    for (uint64_t p = 0; p < pages_to_probe; ++p) {
      ASSERT_EQ(store.IsResident(&n, p), ref.IsResident(&n, p)) << "page " << p;
    }
  }
}

class PageStoreModelParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageStoreModelParityTest, RandomOpsMatchOrderedReference) {
  constexpr uint64_t kPages = 96;
  Rng rng(GetParam());
  const uint64_t capacity = GetParam() % 3 == 0 ? 0 : static_cast<uint64_t>(rng.UniformInt(8, 64));
  PageStore store(capacity);
  ReferenceStore ref(capacity);
  for (int i = 0; i < 4000; ++i) {
    const int* node = &parity_nodes[rng.UniformInt(0, 2)];
    const uint64_t page = static_cast<uint64_t>(rng.UniformInt(0, kPages - 1));
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:
        ASSERT_EQ(store.Insert(node, page, SimTime()), ref.Insert(node, page));
        break;
      case 3:
      case 4:
        store.MarkDirty(node, page, SimTime());
        ref.MarkDirty(node, page);
        break;
      case 5:
        store.MarkClean(node, page);
        ref.MarkClean(node, page);
        break;
      case 6:
        store.Touch(node, page);
        ref.Touch(node, page);
        break;
      case 7: {
        const bool pin = rng.Bernoulli(0.5);
        pin ? store.Pin(node, page) : store.Unpin(node, page);
        ref.SetPinned(node, page, pin);
        break;
      }
      case 8:
        if (rng.Bernoulli(0.1)) {
          ASSERT_EQ(store.PurgeNode(node), ref.DropFrom(node, 0));
        }
        break;
      case 9:
        if (rng.Bernoulli(0.3)) {
          ASSERT_EQ(store.TruncateNode(node, page), ref.DropFrom(node, page));
        }
        break;
    }
    ExpectSameState(store, ref, kPages);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageStoreModelParityTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19));

// A large file read sequentially through a small cache: every insert evicts
// the file's lowest resident page, the case sorted per-node page vectors
// paid a front erase for. Then truncation and purge of what is left.
TEST(PageStoreModelParity, LargeSequentialFileEvictsFrontFirst) {
  constexpr uint64_t kCapacity = 512;
  constexpr uint64_t kFilePages = 20000;
  const int* big = &parity_nodes[0];
  const int* small = &parity_nodes[1];
  PageStore store(kCapacity);
  ReferenceStore ref(kCapacity);
  for (uint64_t p = 0; p < 8; ++p) {
    store.MarkDirty(small, p, SimTime());
    ref.MarkDirty(small, p);
  }
  for (uint64_t p = 0; p < kFilePages; ++p) {
    ASSERT_EQ(store.Insert(big, p, SimTime()), ref.Insert(big, p));
    if (p % 1000 == 999) {
      store.MarkDirty(big, p, SimTime());
      ref.MarkDirty(big, p);
    }
    ASSERT_EQ(store.resident_pages(), ref.resident_pages());
    ASSERT_EQ(store.evictions(), ref.evictions());
  }
  ExpectSameState(store, ref, kFilePages);
  // The dirty pages hold part of the budget; the clean rest is the file's
  // most recent tail.
  const uint64_t dirty = store.dirty_pages();
  EXPECT_EQ(dirty, 8u + kFilePages / 1000);
  for (uint64_t p = kFilePages - (kCapacity - dirty); p < kFilePages; ++p) {
    ASSERT_TRUE(store.IsResident(big, p));
  }
  EXPECT_FALSE(store.IsResident(big, kFilePages - kCapacity));
  // Cuts above the highest page, inside the resident tail, and at zero.
  EXPECT_EQ(store.TruncateNode(big, kFilePages + 100), ref.DropFrom(big, kFilePages + 100));
  EXPECT_EQ(store.TruncateNode(big, kFilePages - 100), ref.DropFrom(big, kFilePages - 100));
  ExpectSameState(store, ref, 0);
  EXPECT_EQ(store.TruncateNode(big, 0), ref.DropFrom(big, 0));
  EXPECT_EQ(store.PurgeNode(small), ref.DropFrom(small, 0));
  ExpectSameState(store, ref, 0);
  EXPECT_EQ(store.resident_pages(), 0u);
  // The emptied nodes take pages again.
  EXPECT_TRUE(store.Insert(big, 3, SimTime()));
  EXPECT_TRUE(ref.Insert(big, 3));
  ExpectSameState(store, ref, 8);
}

}  // namespace
}  // namespace ntrace
