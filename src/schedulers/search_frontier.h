// Allocation-lean frontier mechanics for the exact search engine
// (DESIGN.md §9/§11): an open-addressing flat distance map, pooled wave
// buffers, and the wide-state interner that lifts the engine past the
// 32-node packed-mask fast path. The PR 3 engine kept distances in 64
// sharded std::unordered_map shards and allocated a fresh std::vector per
// (key, level) of the pending map — node-by-node heap traffic on the
// hottest loop in the repo. Here every shard is a flat linear-probe
// table (one contiguous slab, grown by doubling, never freed mid-search)
// and level vectors are recycled through a pool, so steady-state waves
// allocate nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.h"

namespace wrbpg {

// Pebbling configuration handle. Graphs of at most 32 nodes pack the
// whole configuration inline — red mask | (blue mask << 32) — so the
// handle IS the state (the fast path). Wider graphs store configurations
// as word arrays in a StateInterner and the handle is the interned id;
// either way every frontier container (dist map, pending levels, update
// buffers) traffics in plain 64-bit values.
using SearchState = std::uint64_t;

// Tiny test-and-test-and-set lock for the sharded hot-path tables below.
// Their critical sections are a handful of instructions (one probe, one
// store), so an uncontended atomic exchange (~a few ns) beats a mutex
// call by an order of magnitude on the hottest loop in the repo; 64-way
// sharding keeps contention negligible even at full thread counts. The
// relaxed-spin inner loop keeps the cache line shared while waiting, and
// yield() bounds the damage if a holder is preempted mid-section.
class SpinLock {
 public:
  void lock() {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
        // The critical sections behind this lock are a handful of
        // nanoseconds, so a free holder releases within a few spins; a
        // longer wait means the holder was descheduled (more workers
        // than cores) and burning the rest of our quantum only delays
        // it further — yield early.
        if (++spins >= 64) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Wave key: f = g + h first (Dijkstra runs with h == 0, so f == g), then
// the Definition 2.2 cost g, then schedule length. The length component
// makes the order well-founded under the free moves (M3/M4 cost nothing,
// so cost alone admits zero-cost cycles like compute-then-delete) and is
// the middle tier of the determinism contract's tie-break.
struct WaveKey {
  Weight f = 0;
  Weight g = 0;
  std::uint32_t len = 0;

  friend bool operator==(const WaveKey&, const WaveKey&) = default;
  friend bool operator<(const WaveKey& a, const WaveKey& b) {
    if (a.f != b.f) return a.f < b.f;
    if (a.g != b.g) return a.g < b.g;
    return a.len < b.len;
  }
};

// Structure-of-arrays buffer for one expansion chunk's wave updates.
// Keys and states live in separate contiguous runs instead of an
// array-of-structs: the merge loop after a wave touches keys first (to
// group updates into pending levels) and only then states, so splitting
// the streams halves the bytes each pass pulls through the cache and
// lets the (smaller) state run stay resident. Cleared per wave, capacity
// retained — steady-state waves allocate nothing.
class UpdateBuffer {
 public:
  void Clear() {
    keys_.clear();
    states_.clear();
  }
  void Push(const WaveKey& key, SearchState state) {
    keys_.push_back(key);
    states_.push_back(state);
  }
  std::size_t size() const { return keys_.size(); }
  const WaveKey& key(std::size_t i) const { return keys_[i]; }
  SearchState state(std::size_t i) const { return states_[i]; }

  std::size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(WaveKey) +
           states_.capacity() * sizeof(SearchState);
  }

 private:
  std::vector<WaveKey> keys_;
  std::vector<SearchState> states_;
};

// Sharded insert-only SearchState -> heuristic-value cache. The A*
// heuristic is a pure function of the configuration, so reopening and
// regenerated successors keep re-deriving h for states the search has
// already priced; the searcher consults this cache on the slow (full
// re-walk) heuristic paths only — the fast incremental deltas are cheaper
// than a probe. kInfiniteCost is a legitimate cached value (dead states
// are exactly the ones regenerated most), hence the explicit `used` flag.
// Insert races between workers are benign: both write the same h.
class BoundCache {
 public:
  bool Find(SearchState s, Weight* h) const {
    const Shard& shard = shards_[ShardIndex(s)];
    std::lock_guard<SpinLock> lock(shard.mu);
    if (shard.slots.empty()) return false;
    const Entry& e = shard.slots[shard.ProbeIndex(s)];
    if (!e.used) return false;
    *h = e.h;
    return true;
  }

  void Insert(SearchState s, Weight h) {
    Shard& shard = shards_[ShardIndex(s)];
    std::lock_guard<SpinLock> lock(shard.mu);
    if (shard.slots.empty()) shard.slots.resize(kInitialCapacity);
    std::size_t i = shard.ProbeIndex(s);
    if (shard.slots[i].used) return;  // someone else priced it first
    if ((shard.size + 1) * 4 > shard.slots.size() * 3) {
      shard.Rehash(shard.slots.size() * 2);
      i = shard.ProbeIndex(s);
    }
    shard.slots[i] = Entry{s, h, true};
    ++shard.size;
  }

  std::size_t MemoryBytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.slots.capacity() * sizeof(Entry);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShardCount = 64;  // power of two
  static constexpr std::size_t kInitialCapacity = 256;

  struct Entry {
    SearchState state = 0;
    Weight h = 0;
    bool used = false;
  };
  struct Shard {
    mutable SpinLock mu;
    std::vector<Entry> slots;  // power-of-two capacity
    std::size_t size = 0;

    std::size_t ProbeIndex(SearchState s) const {
      const std::uint64_t h = s * 0x9e3779b97f4a7c15ull;
      std::size_t i = static_cast<std::size_t>(h ^ (h >> 29)) &
                      (slots.size() - 1);
      while (slots[i].used && slots[i].state != s) {
        i = (i + 1) & (slots.size() - 1);
      }
      return i;
    }
    void Rehash(std::size_t capacity) {
      std::vector<Entry> old = std::exchange(slots, {});
      slots.resize(capacity);
      for (const Entry& e : old) {
        if (e.used) slots[ProbeIndex(e.state)] = e;
      }
    }
  };

  static std::size_t ShardIndex(SearchState s) {
    return static_cast<std::size_t>((s * 0x9e3779b97f4a7c15ull) >> 58) &
           (kShardCount - 1);
  }

  Shard shards_[kShardCount];
};

// Concurrent SearchState -> best-known (g, len) map. Sharded so parallel
// frontier expansion relaxes edges without a global lock; shortest-path
// distances are unique, so the final contents are independent of which
// thread wins each race — the root of the parallel == sequential
// guarantee. Within a shard, open addressing with linear probing: inserts
// touch one cache line in the common case instead of an allocator.
class FlatDistMap {
 public:
  struct Entry {
    SearchState state = 0;
    Weight g = 0;
    std::uint32_t len = 0;
    bool used = false;
  };

  // Single-writer mode: a searcher running without a pool tells the map
  // to skip the shard locks entirely — TryImprove is then plain loads and
  // stores. MUST be true whenever more than one thread can call
  // TryImprove concurrently.
  void SetConcurrent(bool concurrent) { concurrent_ = concurrent; }

  // Inserts or lexicographically lowers (g, len) for `s`; true when this
  // call changed the stored value.
  bool TryImprove(SearchState s, Weight g, std::uint32_t len) {
    Shard& shard = shards_[ShardIndex(s)];
    if (concurrent_) {
      std::lock_guard<SpinLock> lock(shard.mu);
      return TryImproveIn(shard, s, g, len);
    }
    return TryImproveIn(shard, s, g, len);
  }

  // Best-effort prefetch of the slot TryImprove(s) will probe first, so
  // expansion loops can overlap the map's cache miss with further move
  // evaluation. Reads a relaxed-atomic snapshot of the shard's slab
  // (published by Rehash under the lock), so a concurrent rehash at worst
  // leaves a stale snapshot — and a prefetch of a dead slab is harmless
  // (the hint has no fault or visibility semantics). Never dereferences.
  void Prefetch(SearchState s) const {
    const Shard& shard = shards_[ShardIndex(s)];
    const Entry* base = shard.probe_base.load(std::memory_order_relaxed);
    if (base == nullptr) return;
    const std::uint64_t h = Mix(s);
    const std::size_t i = static_cast<std::size_t>(h ^ (h >> 29)) &
                          shard.probe_mask.load(std::memory_order_relaxed);
    __builtin_prefetch(&base[i], 1, 1);
  }

  // Lock-free lookup; only legal while no expansion is in flight (between
  // waves, and during reconstruction).
  const Entry* Find(SearchState s) const {
    const Shard& shard = shards_[ShardIndex(s)];
    if (shard.slots.empty()) return nullptr;
    const Entry* e = shard.ProbeConst(s);
    return e->used ? e : nullptr;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.size;
    return total;
  }

  // Bytes held by the slot slabs — the dominant search allocation and the
  // input to the anytime engine's frontier byte budget. Counts capacity,
  // not occupancy, because capacity is what the allocator charged us.
  std::size_t MemoryBytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.slots.capacity() * sizeof(Entry);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShardCount = 64;  // power of two
  static constexpr std::size_t kInitialCapacity = 256;

  static std::uint64_t Mix(SearchState s) {
    return s * 0x9e3779b97f4a7c15ull;
  }
  static std::size_t ShardIndex(SearchState s) {
    return static_cast<std::size_t>(Mix(s) >> 58) & (kShardCount - 1);
  }

  struct Shard {
    SpinLock mu;
    std::vector<Entry> slots;  // power-of-two capacity
    std::size_t size = 0;
    // Prefetch()'s lock-free snapshot of (slots.data(), capacity - 1);
    // written only under `mu` (in Rehash), read relaxed from any worker.
    std::atomic<const Entry*> probe_base{nullptr};
    std::atomic<std::size_t> probe_mask{0};

    std::size_t SlotIndex(SearchState s) const {
      const std::uint64_t h = Mix(s);
      return static_cast<std::size_t>(h ^ (h >> 29)) & (slots.size() - 1);
    }
    Entry* Probe(SearchState s) {
      std::size_t i = SlotIndex(s);
      while (slots[i].used && slots[i].state != s) {
        i = (i + 1) & (slots.size() - 1);
      }
      return &slots[i];
    }
    const Entry* ProbeConst(SearchState s) const {
      std::size_t i = SlotIndex(s);
      while (slots[i].used && slots[i].state != s) {
        i = (i + 1) & (slots.size() - 1);
      }
      return &slots[i];
    }
    void Rehash(std::size_t capacity) {
      std::vector<Entry> old = std::exchange(slots, {});
      slots.resize(capacity);
      for (const Entry& e : old) {
        if (e.used) *Probe(e.state) = e;
      }
      probe_base.store(slots.data(), std::memory_order_relaxed);
      probe_mask.store(slots.size() - 1, std::memory_order_relaxed);
    }
  };

  static bool TryImproveIn(Shard& shard, SearchState s, Weight g,
                           std::uint32_t len) {
    if (shard.slots.empty()) shard.Rehash(kInitialCapacity);
    Entry* e = shard.Probe(s);
    if (!e->used) {
      if ((shard.size + 1) * 4 > shard.slots.size() * 3) {
        shard.Rehash(shard.slots.size() * 2);
        e = shard.Probe(s);
      }
      e->state = s;
      e->g = g;
      e->len = len;
      e->used = true;
      ++shard.size;
      return true;
    }
    if (g < e->g || (g == e->g && len < e->len)) {
      e->g = g;
      e->len = len;
      return true;
    }
    return false;
  }

  bool concurrent_ = true;
  Shard shards_[kShardCount];
};

// Recycles the per-level state vectors of the pending map. Extracted
// levels hand their storage back; new levels pull it out again, so after
// the first few waves the frontier runs allocation-free regardless of how
// many levels come and go ("bulk-freed between levels").
class LevelPool {
 public:
  std::vector<SearchState> Acquire() {
    if (pool_.empty()) return {};
    std::vector<SearchState> v = std::move(pool_.back());
    pool_.pop_back();
    return v;
  }
  void Release(std::vector<SearchState>&& v) {
    v.clear();
    pool_.push_back(std::move(v));
  }

 private:
  std::vector<std::vector<SearchState>> pool_;
};

// Deduplicating store for wide pebbling configurations (graphs past the
// 32-node packed fast path). Each configuration is `words` 64-bit words —
// red mask words first, blue mask words second — interned once and handed
// out as a stable SearchState id, so the dist map / pending machinery
// above runs unchanged on ids.
//
// Concurrency contract (mirrors FlatDistMap): Intern() is safe from any
// pool worker mid-wave; Words() may be called on any id PUBLISHED BEFORE
// the last wave barrier (the level-synchronous searcher only dereferences
// states from earlier waves while expanding, and TaskGroup::Wait is the
// synchronizing edge). Slabs are fixed-size chunks behind an atomic
// pointer directory, so interning never moves words a reader could hold.
// A chunk holds kChunkBytes (64 KiB) of configurations: the largest
// power-of-two number of states that fits, at least one, so a shard's
// first state allocates no more at 342 words per color than at one.
// Find() (lookup without insert) is only called from the single-threaded
// reconstruction walk.
class StateInterner {
 public:
  explicit StateInterner(std::size_t words)
      : words_(words),
        chunk_shift_(ChunkShift(words)),
        chunk_mask_((std::uint32_t{1} << chunk_shift_) - 1) {}

  // Per-worker lookaside over Intern(): a direct-mapped {hash -> id}
  // table that answers repeat interns of hot configurations without
  // touching the owning shard's lock. Entries only ever point at ids the
  // owning worker interned itself, so the Words() dereference in the
  // verify step needs no extra synchronization. One per expansion
  // scratch; cleared never (stale entries just miss).
  class LocalCache {
   public:
    static constexpr std::size_t kSlots = 4096;  // power of two

   private:
    friend class StateInterner;
    struct Slot {
      std::uint64_t hash = 0;
      SearchState id = 0;
      bool used = false;
    };
    std::vector<Slot> slots_;  // sized lazily on first use
  };

  // Intern() through the worker's local cache; `hits`/`misses` count the
  // lookaside's effectiveness (they feed search.intern_cache_* — counts
  // are per-worker and interleaving-dependent, reporting only).
  bool InternCached(const std::uint64_t* w, LocalCache& cache, SearchState* id,
                    std::uint64_t* hits, std::uint64_t* misses) {
    const std::uint64_t h = Hash(w);
    if (cache.slots_.empty()) cache.slots_.resize(LocalCache::kSlots);
    LocalCache::Slot& slot = cache.slots_[h & (LocalCache::kSlots - 1)];
    if (slot.used && slot.hash == h && Equal(Words(slot.id), w)) {
      *id = slot.id;
      ++*hits;
      return true;
    }
    ++*misses;
    if (!InternHashed(w, h, id)) return false;
    slot = {h, *id, true};
    return true;
  }

  // Interns `w` (words_ words) and returns its id; false when the chunk
  // directory is exhausted (the caller treats it as a memory cap). Every
  // chunk holds more than 32 KiB, so 64 shards of 2,048 chunks hold over
  // 4 GiB of configurations at any width, the default frontier_bytes_cap.
  bool Intern(const std::uint64_t* w, SearchState* id) {
    return InternHashed(w, Hash(w), id);
  }

 private:
  bool InternHashed(const std::uint64_t* w, std::uint64_t h, SearchState* id) {
    Shard& shard = shards_[ShardIndex(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.slots.empty()) shard.slots.assign(kInitialCapacity, 0);
    std::uint32_t* slot = Probe(shard, h, w);
    if (*slot != 0) {
      *id = MakeId(ShardIndex(h), *slot - 1);
      return true;
    }
    const std::uint32_t local = shard.count;
    const std::size_t chunk = local >> chunk_shift_;
    if (chunk >= kMaxChunks) return false;
    if (shard.chunks[chunk].load(std::memory_order_relaxed) == nullptr) {
      shard.storage.push_back(std::make_unique<std::uint64_t[]>(ChunkWords()));
      shard.chunks[chunk].store(shard.storage.back().get(),
                                std::memory_order_release);
    }
    std::uint64_t* dst = shard.chunks[chunk].load(std::memory_order_relaxed) +
                         (local & chunk_mask_) * words_;
    std::memcpy(dst, w, words_ * sizeof(std::uint64_t));
    ++shard.count;
    if ((shard.count + 1) * 4 > shard.slots.size() * 3) {
      Rehash(shard);
      slot = Probe(shard, h, w);
    }
    *slot = local + 1;
    *id = MakeId(ShardIndex(h), local);
    return true;
  }

 public:
  // Lookup without insert; used by the reconstruction walk to test
  // whether a candidate predecessor was ever discovered.
  bool Find(const std::uint64_t* w, SearchState* id) const {
    const std::uint64_t h = Hash(w);
    const Shard& shard = shards_[ShardIndex(h)];
    if (shard.slots.empty()) return false;
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 31)) &
                    (shard.slots.size() - 1);
    while (shard.slots[i] != 0) {
      if (Equal(WordsIn(shard, shard.slots[i] - 1), w)) {
        *id = MakeId(ShardIndex(h), shard.slots[i] - 1);
        return true;
      }
      i = (i + 1) & (shard.slots.size() - 1);
    }
    return false;
  }

  // The words of an interned id (red words, then blue words).
  const std::uint64_t* Words(SearchState id) const {
    const Shard& shard = shards_[id & (kShardCount - 1)];
    const std::uint32_t local = static_cast<std::uint32_t>(id >> kShardBits);
    return shard.chunks[local >> chunk_shift_].load(
               std::memory_order_acquire) +
           (local & chunk_mask_) * words_;
  }

  std::size_t words() const { return words_; }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) total += shard.count;
    return total;
  }

  std::size_t MemoryBytes() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.storage.size() * ChunkWords() * sizeof(std::uint64_t) +
               shard.slots.capacity() * sizeof(std::uint32_t);
    }
    return total;
  }

 private:
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShardCount = 1u << kShardBits;
  static constexpr std::size_t kInitialCapacity = 1024;
  static constexpr std::size_t kChunkBytes = 64 * 1024;
  static constexpr std::size_t kMaxChunks = 2048;

  struct Shard {
    std::mutex mu;
    std::vector<std::uint32_t> slots;  // local id + 1; 0 == empty
    std::uint32_t count = 0;
    std::vector<std::unique_ptr<std::uint64_t[]>> storage;
    std::atomic<std::uint64_t*> chunks[kMaxChunks] = {};
  };

  static std::size_t ShardIndex(std::uint64_t h) {
    return (h >> 58) & (kShardCount - 1);
  }
  static SearchState MakeId(std::size_t shard, std::uint32_t local) {
    return (static_cast<SearchState>(local) << kShardBits) |
           static_cast<SearchState>(shard);
  }
  std::uint64_t Hash(const std::uint64_t* w) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < words_; ++i) {
      h ^= w[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xbf58476d1ce4e5b9ull;
    }
    return h;
  }
  bool Equal(const std::uint64_t* a, const std::uint64_t* b) const {
    return std::memcmp(a, b, words_ * sizeof(std::uint64_t)) == 0;
  }
  const std::uint64_t* WordsIn(const Shard& shard,
                               std::uint32_t local) const {
    return shard.chunks[local >> chunk_shift_].load(
               std::memory_order_relaxed) +
           (local & chunk_mask_) * words_;
  }
  std::uint32_t* Probe(Shard& shard, std::uint64_t h,
                       const std::uint64_t* w) {
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 31)) &
                    (shard.slots.size() - 1);
    while (shard.slots[i] != 0 &&
           !Equal(WordsIn(shard, shard.slots[i] - 1), w)) {
      i = (i + 1) & (shard.slots.size() - 1);
    }
    return &shard.slots[i];
  }
  void Rehash(Shard& shard) {
    std::vector<std::uint32_t> old = std::exchange(
        shard.slots, std::vector<std::uint32_t>(shard.slots.size() * 2, 0));
    for (const std::uint32_t local_plus_1 : old) {
      if (local_plus_1 == 0) continue;
      const std::uint64_t* w = WordsIn(shard, local_plus_1 - 1);
      *Probe(shard, Hash(w), w) = local_plus_1;
    }
  }

  // log2 of the states per chunk: the largest power of two whose
  // configurations fit in kChunkBytes, at least one.
  static unsigned ChunkShift(std::size_t words) {
    const std::size_t states =
        kChunkBytes / (std::max<std::size_t>(words, 1) * sizeof(std::uint64_t));
    return states <= 1 ? 0 : static_cast<unsigned>(std::bit_width(states) - 1);
  }
  std::size_t ChunkWords() const {
    return (std::size_t{1} << chunk_shift_) * words_;
  }

  std::size_t words_;
  unsigned chunk_shift_;
  std::uint32_t chunk_mask_;  // states per chunk - 1
  Shard shards_[kShardCount];
};

}  // namespace wrbpg
