#include "src/mm/page_store.h"

#include <algorithm>
#include <cassert>

namespace ntrace {

namespace {

// Sorted-vector set operations for the per-node dirty lists. Lists are
// short (a node's dirty pages) and pages arrive mostly in ascending order,
// so the memmove beats per-element hash nodes by a wide margin.
void SortedInsert(std::vector<uint64_t>& v, uint64_t page) {
  auto it = std::lower_bound(v.begin(), v.end(), page);
  if (it == v.end() || *it != page) {
    v.insert(it, page);
  }
}

void SortedErase(std::vector<uint64_t>& v, uint64_t page) {
  auto it = std::lower_bound(v.begin(), v.end(), page);
  if (it != v.end() && *it == page) {
    v.erase(it);
  }
}

}  // namespace

PageStore::PageStore(uint64_t capacity_pages) : capacity_pages_(capacity_pages) {}

void PageStore::AddEntry(const PageKey& key, bool dirty, SimTime now) {
  uint32_t s;
  if (free_head_ != kNil) {
    s = free_head_;
    free_head_ = slots_[s].next;
  } else {
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.key = key;
  slot.dirty = dirty;
  slot.pinned = false;
  slot.dirtied_at = now;
  LruPushFront(s);
  index_.emplace(key, s);
  NodePages& list = node_pages_[key.node];
  slot.node_prev = kNil;
  slot.node_next = list.head;
  if (list.head != kNil) {
    slots_[list.head].node_prev = s;
  }
  list.head = s;
  list.page_bound = std::max(list.page_bound, key.page + 1);
}

void PageStore::FreeSlot(uint32_t s) {
  slots_[s].next = free_head_;
  free_head_ = s;
}

void PageStore::LruPushFront(uint32_t s) {
  Slot& slot = slots_[s];
  slot.prev = kNil;
  slot.next = lru_head_;
  if (lru_head_ != kNil) {
    slots_[lru_head_].prev = s;
  }
  lru_head_ = s;
  if (lru_tail_ == kNil) {
    lru_tail_ = s;
  }
}

void PageStore::LruUnlink(uint32_t s) {
  Slot& slot = slots_[s];
  if (slot.prev != kNil) {
    slots_[slot.prev].next = slot.next;
  } else {
    lru_head_ = slot.next;
  }
  if (slot.next != kNil) {
    slots_[slot.next].prev = slot.prev;
  } else {
    lru_tail_ = slot.prev;
  }
}

void PageStore::NodeUnlink(uint32_t s, NodePages& list) {
  const Slot& slot = slots_[s];
  if (slot.node_prev != kNil) {
    slots_[slot.node_prev].node_next = slot.node_next;
  } else {
    list.head = slot.node_next;
  }
  if (slot.node_next != kNil) {
    slots_[slot.node_next].node_prev = slot.node_prev;
  }
  if (list.head == kNil) {
    list.page_bound = 0;
  }
}

bool PageStore::Insert(const void* node, uint64_t page, SimTime now) {
  const PageKey key{node, page};
  if (index_.find(key) != index_.end()) {
    Touch(node, page);
    return false;
  }
  AddEntry(key, /*dirty=*/false, now);
  EvictIfNeeded();
  return true;
}

bool PageStore::IsResident(const void* node, uint64_t page) const {
  return index_.count(PageKey{node, page}) != 0;
}

void PageStore::MarkDirty(const void* node, uint64_t page, SimTime now) {
  const PageKey key{node, page};
  auto it = index_.find(key);
  if (it == index_.end()) {
    // Create the entry already-dirty so concurrent eviction pressure can
    // never reclaim it between insertion and dirtying.
    AddEntry(key, /*dirty=*/true, now);
    SortedInsert(dirty_by_node_[node], page);
    ++total_dirty_;
    EvictIfNeeded();
    return;
  }
  Slot& slot = slots_[it->second];
  if (!slot.dirty) {
    slot.dirty = true;
    slot.dirtied_at = now;
    SortedInsert(dirty_by_node_[node], page);
    ++total_dirty_;
  }
}

void PageStore::MarkClean(const void* node, uint64_t page) {
  const PageKey key{node, page};
  auto it = index_.find(key);
  if (it == index_.end() || !slots_[it->second].dirty) {
    return;
  }
  slots_[it->second].dirty = false;
  auto nit = dirty_by_node_.find(node);
  if (nit != dirty_by_node_.end()) {
    SortedErase(nit->second, page);
  }
  assert(total_dirty_ > 0);
  --total_dirty_;
}

bool PageStore::IsDirty(const void* node, uint64_t page) const {
  auto it = index_.find(PageKey{node, page});
  return it != index_.end() && slots_[it->second].dirty;
}

void PageStore::Touch(const void* node, uint64_t page) {
  auto it = index_.find(PageKey{node, page});
  if (it == index_.end()) {
    return;
  }
  const uint32_t s = it->second;
  if (lru_head_ == s) {
    return;
  }
  LruUnlink(s);
  LruPushFront(s);
}

void PageStore::Pin(const void* node, uint64_t page) {
  auto it = index_.find(PageKey{node, page});
  if (it != index_.end()) {
    slots_[it->second].pinned = true;
  }
}

void PageStore::Unpin(const void* node, uint64_t page) {
  auto it = index_.find(PageKey{node, page});
  if (it != index_.end()) {
    slots_[it->second].pinned = false;
  }
}

uint64_t PageStore::DropGathered() {
  std::sort(drop_scratch_.begin(), drop_scratch_.end(),
            [this](uint32_t a, uint32_t b) { return slots_[a].key.page < slots_[b].key.page; });
  uint64_t dirty_discarded = 0;
  for (uint32_t s : drop_scratch_) {
    const Slot& slot = slots_[s];
    if (slot.dirty) {
      assert(total_dirty_ > 0);
      --total_dirty_;
      ++dirty_discarded;
    }
    LruUnlink(s);
    index_.erase(slot.key);
    FreeSlot(s);
  }
  return dirty_discarded;
}

uint64_t PageStore::PurgeNode(const void* node) {
  auto pit = node_pages_.find(node);
  if (pit == node_pages_.end() || pit->second.head == kNil) {
    return 0;
  }
  drop_scratch_.clear();
  for (uint32_t s = pit->second.head; s != kNil; s = slots_[s].node_next) {
    drop_scratch_.push_back(s);
  }
  pit->second = NodePages{};
  const uint64_t dirty_discarded = DropGathered();
  if (dirty_discarded > 0) {
    dirty_by_node_.find(node)->second.clear();
  }
  return dirty_discarded;
}

uint64_t PageStore::TruncateNode(const void* node, uint64_t first_page_to_drop) {
  auto pit = node_pages_.find(node);
  if (pit == node_pages_.end() || first_page_to_drop >= pit->second.page_bound) {
    return 0;
  }
  NodePages& list = pit->second;
  drop_scratch_.clear();
  uint64_t kept_bound = 0;
  for (uint32_t s = list.head; s != kNil;) {
    const uint32_t next = slots_[s].node_next;
    const uint64_t page = slots_[s].key.page;
    if (page >= first_page_to_drop) {
      NodeUnlink(s, list);
      drop_scratch_.push_back(s);
    } else {
      kept_bound = std::max(kept_bound, page + 1);
    }
    s = next;
  }
  list.page_bound = kept_bound;
  const uint64_t dirty_discarded = DropGathered();
  if (dirty_discarded > 0) {
    std::vector<uint64_t>& dirty = dirty_by_node_.find(node)->second;
    dirty.erase(std::lower_bound(dirty.begin(), dirty.end(), first_page_to_drop), dirty.end());
  }
  return dirty_discarded;
}

const std::vector<uint64_t>& PageStore::DirtyPagesOf(const void* node) const {
  static const std::vector<uint64_t> kNone;
  auto it = dirty_by_node_.find(node);
  return it == dirty_by_node_.end() ? kNone : it->second;
}

uint64_t PageStore::DirtyCountOf(const void* node) const {
  auto it = dirty_by_node_.find(node);
  return it == dirty_by_node_.end() ? 0 : it->second.size();
}

void PageStore::EvictIfNeeded() {
  if (capacity_pages_ == 0 || index_.size() <= capacity_pages_ || lru_head_ == kNil) {
    return;
  }
  // Scan from the LRU end, skipping dirty/pinned pages. The MRU front entry
  // (typically the page being inserted right now) is never evicted. When
  // everything is dirty or pinned the store over-commits; the cache
  // manager's write throttling brings it back under budget.
  uint32_t s = lru_tail_;
  while (index_.size() > capacity_pages_) {
    const bool at_front = s == lru_head_;
    const Slot& slot = slots_[s];
    const uint32_t prev = slot.prev;
    if (!slot.dirty && !slot.pinned && !at_front) {
      NodeUnlink(s, node_pages_.find(slot.key.node)->second);
      LruUnlink(s);
      index_.erase(slot.key);
      FreeSlot(s);
      ++evictions_;
    }
    if (at_front) {
      break;
    }
    s = prev;
  }
}

}  // namespace ntrace
