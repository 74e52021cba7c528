// Open-addressing hash map for the simulation hot path.
//
// std::unordered_map costs one heap node per entry and a pointer chase per
// probe; on the per-record path (cache-map lookups, file-object tables, the
// trace name index) that is the dominant cache-miss source. FlatMap keeps
// entries inline in a power-of-two slot array with linear probing and
// tombstones: probes touch consecutive cache lines, inserts allocate only on
// growth, and erase never frees. Hashes pass through a splitmix64 finalizer
// so identity-like std::hash specializations still spread across the masked
// low bits.
//
// Deliberate non-goals (this is a hot-path container, not a std drop-in):
//   - iteration order is unspecified and changes on rehash; callers that
//     need determinism must sort (see CacheManager::LazyWriterScan) -- do
//     NOT use FlatMap where iteration order is serialized (e.g.
//     TraceSet::process_names).
//   - iterators and entry addresses are invalidated by insert (rehash).
//   - value_type is a mutable pair; do not modify `first` through it.
//
// Requirements: Key and Value default-constructible and move-assignable.
// Erased slots are reset by assigning a default-constructed pair, which
// releases owned resources (unique_ptr values work).

#ifndef SRC_BASE_FLAT_MAP_H_
#define SRC_BASE_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace ntrace {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 16;

  template <bool Const>
  class Iter {
   public:
    using MapPtr = std::conditional_t<Const, const FlatMap*, FlatMap*>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(MapPtr map, size_t index) : map_(map), index_(index) {}
    // iterator -> const_iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : map_(other.map()), index_(other.index()) {}

    Ref operator*() const { return map_->slots_[index_]; }
    Ptr operator->() const { return &map_->slots_[index_]; }
    Iter& operator++() {
      ++index_;
      SkipToFull();
      return *this;
    }
    bool operator==(const Iter& other) const { return index_ == other.index_; }
    bool operator!=(const Iter& other) const { return index_ != other.index_; }

    MapPtr map() const { return map_; }
    size_t index() const { return index_; }

   private:
    friend class FlatMap;
    void SkipToFull() {
      while (index_ < map_->states_.size() && map_->states_[index_] != kFull) {
        ++index_;
      }
    }

    MapPtr map_ = nullptr;
    size_t index_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  iterator begin() {
    iterator it(this, 0);
    it.SkipToFull();
    return it;
  }
  iterator end() { return iterator(this, states_.size()); }
  const_iterator begin() const {
    const_iterator it(this, 0);
    it.SkipToFull();
    return it;
  }
  const_iterator end() const { return const_iterator(this, states_.size()); }

  iterator find(const Key& key) {
    const size_t i = FindIndex(key);
    return i == kNpos ? end() : iterator(this, i);
  }
  const_iterator find(const Key& key) const {
    const size_t i = FindIndex(key);
    return i == kNpos ? end() : const_iterator(this, i);
  }

  size_t count(const Key& key) const { return FindIndex(key) == kNpos ? 0 : 1; }

  Value& at(const Key& key) {
    const size_t i = FindIndex(key);
    assert(i != kNpos && "FlatMap::at: key not found");
    return slots_[i].second;
  }
  const Value& at(const Key& key) const {
    const size_t i = FindIndex(key);
    assert(i != kNpos && "FlatMap::at: key not found");
    return slots_[i].second;
  }

  Value& operator[](const Key& key) { return emplace(key).first->second; }

  // Inserts key -> Value(args...) if absent; returns {iterator, inserted}.
  template <typename K2, typename... Args>
  std::pair<iterator, bool> emplace(K2&& key, Args&&... args) {
    ReserveForInsert();
    size_t i = Mix(hash_(key)) & mask_;
    size_t tombstone = kNpos;
    for (;;) {
      const uint8_t state = states_[i];
      if (state == kEmpty) {
        break;
      }
      if (state == kFull && slots_[i].first == key) {
        return {iterator(this, i), false};
      }
      if (state == kTombstone && tombstone == kNpos) {
        tombstone = i;
      }
      i = (i + 1) & mask_;
    }
    if (tombstone != kNpos) {
      i = tombstone;  // Reuse: used_ already counts it.
    } else {
      ++used_;
    }
    states_[i] = kFull;
    slots_[i].first = Key(std::forward<K2>(key));
    slots_[i].second = Value(std::forward<Args>(args)...);
    ++size_;
    return {iterator(this, i), true};
  }

  std::pair<iterator, bool> insert(value_type entry) {
    return emplace(std::move(entry.first), std::move(entry.second));
  }

  size_t erase(const Key& key) {
    const size_t i = FindIndex(key);
    if (i == kNpos) {
      return 0;
    }
    EraseAt(i);
    return 1;
  }

  void erase(const_iterator it) { EraseAt(it.index()); }
  void erase(iterator it) { EraseAt(it.index()); }

  void clear() {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        slots_[i] = value_type();
      }
      states_[i] = kEmpty;
    }
    size_ = 0;
    used_ = 0;
  }

  // Pre-sizes so `n` entries fit without rehash (load factor <= 3/4).
  void reserve(size_t n) {
    const size_t needed = n + n / 3 + 1;
    size_t cap = kMinCapacity;
    while (cap < needed) {
      cap <<= 1;
    }
    if (cap > states_.size()) {
      Rehash(cap);
    }
  }

  size_t capacity() const { return states_.size(); }

 private:
  static size_t Mix(size_t h) {
    // splitmix64 finalizer: cheap full-avalanche so power-of-two masking is
    // safe under identity-style std::hash.
    uint64_t x = static_cast<uint64_t>(h);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  size_t FindIndex(const Key& key) const {
    if (states_.empty()) {
      return kNpos;
    }
    size_t i = Mix(hash_(key)) & mask_;
    for (;;) {
      const uint8_t state = states_[i];
      if (state == kEmpty) {
        return kNpos;
      }
      if (state == kFull && slots_[i].first == key) {
        return i;
      }
      i = (i + 1) & mask_;
    }
  }

  void EraseAt(size_t i) {
    assert(states_[i] == kFull);
    slots_[i] = value_type();  // Releases owned resources.
    --size_;
    if (states_[(i + 1) & mask_] == kEmpty) {
      // The probe chain ends right after us: this slot and any tombstone
      // run leading into it can revert to empty, so churn does not silently
      // degrade every future probe.
      states_[i] = kEmpty;
      --used_;
      size_t j = (i + mask_) & mask_;
      while (states_[j] == kTombstone) {
        states_[j] = kEmpty;
        --used_;
        j = (j + mask_) & mask_;
      }
    } else {
      states_[i] = kTombstone;
    }
  }

  void ReserveForInsert() {
    if (states_.empty()) {
      Rehash(kMinCapacity);
      return;
    }
    if ((used_ + 1) * 4 > states_.size() * 3) {
      // A tombstone-heavy table rehashes in place, but only while live
      // entries fill at most half of it: then the rehash frees at least a
      // quarter of the slots, and the next one is that many inserts away.
      // Above half, an in-place rehash would free only a few slots and a
      // full cache under insert/evict churn would rehash every few inserts.
      const size_t cap =
          (size_ + 1) * 2 > states_.size() ? states_.size() * 2 : states_.size();
      Rehash(cap);
    }
  }

  void Rehash(size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0 && "capacity must be a power of two");
    std::vector<value_type> old_slots = std::move(slots_);
    std::vector<uint8_t> old_states = std::move(states_);
    slots_ = std::vector<value_type>(new_capacity);
    states_.assign(new_capacity, kEmpty);
    mask_ = new_capacity - 1;
    size_ = 0;
    used_ = 0;
    for (size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] == kFull) {
        emplace(std::move(old_slots[i].first), std::move(old_slots[i].second));
      }
    }
  }

  std::vector<value_type> slots_;
  std::vector<uint8_t> states_;
  size_t mask_ = 0;
  size_t size_ = 0;  // Live entries.
  size_t used_ = 0;  // Live entries + tombstones (probe-chain occupancy).
  [[no_unique_address]] Hash hash_{};
};

}  // namespace ntrace

#endif  // SRC_BASE_FLAT_MAP_H_
