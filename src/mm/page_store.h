// The system page cache: residency and dirtiness of 4 KB logical file pages.
//
// Caching in NT happens at the logical file block level, not at disk block
// level (paper, section 9). The page store tracks which pages of which file
// node are memory-resident, which are dirty, and runs the global LRU that
// bounds cache memory. Residency survives open/close cycles -- a file
// re-opened shortly after close still hits in cache, which contributes to
// the paper's observation that 60% of read requests are satisfied from the
// file cache.

#ifndef SRC_MM_PAGE_STORE_H_
#define SRC_MM_PAGE_STORE_H_

#include <cstdint>
#include <vector>

#include "src/base/flat_map.h"
#include "src/base/time.h"

namespace ntrace {

constexpr uint64_t kPageSize = 4096;

// Page index covering byte `offset`.
constexpr uint64_t PageIndex(uint64_t offset) { return offset / kPageSize; }
// Number of pages needed to cover [offset, offset+length).
constexpr uint64_t PageSpan(uint64_t offset, uint64_t length) {
  if (length == 0) {
    return 0;
  }
  return PageIndex(offset + length - 1) - PageIndex(offset) + 1;
}

// Identifies a cached page: the owning file node (opaque to the store) and
// the page index within the file.
struct PageKey {
  const void* node = nullptr;
  uint64_t page = 0;
  bool operator==(const PageKey&) const = default;
};

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    const auto h1 = std::hash<const void*>{}(k.node);
    const auto h2 = std::hash<uint64_t>{}(k.page);
    return h1 ^ (h2 * 0x9E3779B97F4A7C15ULL);
  }
};

class PageStore {
 public:
  // `capacity_pages` bounds resident pages; 0 means unbounded.
  explicit PageStore(uint64_t capacity_pages);

  // Makes a page resident (no-op if already resident) and marks it most
  // recently used. Returns true if the page was newly inserted.
  bool Insert(const void* node, uint64_t page, SimTime now);

  bool IsResident(const void* node, uint64_t page) const;

  // Marks an existing (or newly inserted) page dirty.
  void MarkDirty(const void* node, uint64_t page, SimTime now);
  void MarkClean(const void* node, uint64_t page);
  bool IsDirty(const void* node, uint64_t page) const;

  // Touches a page for LRU purposes.
  void Touch(const void* node, uint64_t page);

  // Pin/unpin: pinned pages are exempt from eviction (used for retained
  // executable image pages, section 3.3).
  void Pin(const void* node, uint64_t page);
  void Unpin(const void* node, uint64_t page);

  // Drops all pages of a node; returns the number of *dirty* pages that were
  // discarded unwritten (the section 6.3 "unwritten pages present at
  // overwrite time" statistic).
  uint64_t PurgeNode(const void* node);

  // Drops pages of `node` at page index >= first_kept_page (truncation).
  // Returns discarded dirty-page count.
  uint64_t TruncateNode(const void* node, uint64_t first_page_to_drop);

  // All dirty pages of a node, sorted ascending (for flush/lazy-write runs).
  // The view is valid until the next mutation of the store: a caller that
  // cleans pages while walking it must copy it first.
  const std::vector<uint64_t>& DirtyPagesOf(const void* node) const;
  uint64_t DirtyCountOf(const void* node) const;

  uint64_t resident_pages() const { return index_.size(); }
  uint64_t dirty_pages() const { return total_dirty_; }
  uint64_t capacity_pages() const { return capacity_pages_; }
  uint64_t evictions() const { return evictions_; }

 private:
  // Pages live in a recycled slot pool threaded with intrusive LRU links
  // (DESIGN.md §9): insert/evict/touch churn must not allocate in steady
  // state, which rules out std::list nodes and per-node hash-set nodes.
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    PageKey key;
    SimTime dirtied_at;
    uint32_t prev = kNil;       // LRU neighbor toward the MRU front.
    uint32_t next = kNil;       // LRU neighbor toward the LRU tail / free chain.
    uint32_t node_prev = kNil;  // Per-node list, toward the node's head.
    uint32_t node_next = kNil;
    bool dirty = false;
    bool pinned = false;
  };

  // A node's resident pages, threaded through Slot::node_prev/node_next in
  // insertion order (newest at the head), so insert and unlink are O(1).
  struct NodePages {
    uint32_t head = kNil;
    // Exceeds every resident page index of the node. Inserts raise it and
    // every purge/truncate walk makes it exact again, so a truncation above
    // the node's pages returns without walking.
    uint64_t page_bound = 0;
  };

  // Makes `key` resident as the MRU page and links it into every index.
  void AddEntry(const PageKey& key, bool dirty, SimTime now);
  void FreeSlot(uint32_t s);
  void LruPushFront(uint32_t s);
  void LruUnlink(uint32_t s);
  void NodeUnlink(uint32_t s, NodePages& list);

  // Evict clean unpinned LRU pages until under capacity. Dirty pages are
  // never evicted here (the lazy writer cleans them first); if everything is
  // dirty or pinned the store temporarily over-commits.
  void EvictIfNeeded();

  // Removes the pages gathered in drop_scratch_ (already unlinked from
  // their node list) in ascending page order from the LRU and the index.
  // Returns how many of them were dirty.
  uint64_t DropGathered();

  uint64_t capacity_pages_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;  // Chained through Slot::next.
  uint32_t lru_head_ = kNil;   // Most recently used.
  uint32_t lru_tail_ = kNil;   // Least recently used.
  // Flat maps (DESIGN.md §9): every cached read/write probes index_, so the
  // probe must stay within one cache line instead of chasing nodes. The
  // per-node dirty lists are kept sorted (the lazy writer coalesces runs
  // from them, and they stay short); emptied lists keep their map entry so
  // re-dirtying reuses capacity.
  FlatMap<PageKey, uint32_t, PageKeyHash> index_;
  FlatMap<const void*, NodePages> node_pages_;
  FlatMap<const void*, std::vector<uint64_t>> dirty_by_node_;
  std::vector<uint32_t> drop_scratch_;  // Purge/truncate work list (slots).
  uint64_t total_dirty_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace ntrace

#endif  // SRC_MM_PAGE_STORE_H_
