// LocalStore: the per-node embedded ordered key/value store. The paper's
// prototype used BerkeleyDB Java Edition for "persistent storage of data"
// (§VI); this is our from-scratch substitute with the same contract: an
// ordered map of byte-string keys to byte-string values with range scans.
//
// Structure is log-structured (append-only record log + in-memory indexes),
// in the spirit of the log-structured filesystems that inspired the paper's
// versioned page scheme (§IV): writes append; the indexes point at live
// records; compaction reclaims superseded records; Recover() rebuilds the
// indexes by replaying the log.
//
// Layout, tuned for the publish/scan hot paths:
//   * record bytes live in a chunked append-only arena — one memcpy per
//     write, no per-record heap allocations, and record locations are stable
//     until the next Compact();
//   * a robin-hood open-addressing hash index serves Get/GetView/Contains
//     point lookups and overwrite/delete mutations;
//   * an insert-only B+tree keyed by string_views into the arena provides
//     ordered range/prefix scans. Overwrites never touch the tree (both
//     indexes point into a shared live-slot table), and deletes only mark
//     the slot dead — iterators skip dead entries and compaction rebuilds
//     the tree densely.
//
// Zero-copy reads: GetView() and Iterator::key()/value() return views into
// the arena. Views remain valid until the next mutating call (a Put/Delete
// may trigger compaction, which rewrites the arena); copy before mutating.
#ifndef ORCHESTRA_LOCALSTORE_LOCAL_STORE_H_
#define ORCHESTRA_LOCALSTORE_LOCAL_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wal/wal.h"

namespace orchestra::localstore {

struct StoreStats {
  uint64_t puts = 0;
  /// Bumped on the const read path (Get/GetView) with relaxed atomics: the
  /// read path must stay safe under concurrent read-only access (the TSan
  /// smoke gate; ROADMAP real-thread concurrency). Mutating counters stay
  /// plain — writes are single-threaded by contract.
  std::atomic<uint64_t> gets{0};
  uint64_t deletes = 0;
  /// Records/bytes appended by MUTATIONS (Put/Delete) only. Recovery replay
  /// re-materializes records into a fresh log without re-counting them here,
  /// so the cumulative write volume stays truthful across restarts and
  /// checkpoint-retired WAL segments are never double-counted.
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t live_records = 0;      // records reachable from the index
  uint64_t compactions = 0;
  // --- Durability (all zero when no WAL backend is attached) --------------
  uint64_t checkpoints = 0;        // manifests successfully published
  uint64_t segments_retired = 0;   // sealed WAL segments deleted
  uint64_t replayed_records = 0;   // post-checkpoint tail records replayed
                                   // by Recover(), summed across restarts
};

struct StoreOptions {
  /// Compact when the dead share of the current log exceeds this fraction,
  /// counted in records or in key+value bytes, whichever is larger (see
  /// LocalStore::dead_fraction()).
  double compaction_garbage_ratio = 0.5;
  /// Do not compact while the log holds fewer records than this.
  uint64_t compaction_min_records = 4096;
  /// Durability: when set, every mutation is framed into a segmented WAL on
  /// this backend and Recover() rebuilds from the newest checkpoint plus the
  /// tail segments past it. Null keeps the in-memory-only behavior (unit
  /// tests; Recover() then replays the in-memory log as a drill).
  std::shared_ptr<wal::Backend> wal_backend;
  /// WAL tuning (segment size, sync cadence); used only with wal_backend.
  wal::WalOptions wal;
  /// Publish a checkpoint after this many WAL appends since the last one
  /// (0 = only explicit Checkpoint() calls). Bounds the replay tail.
  uint64_t checkpoint_every_records = 8192;
};

class LocalStore {
 public:
  explicit LocalStore(StoreOptions options = {});

  /// Inserts or overwrites.
  Status Put(std::string_view key, std::string_view value);
  /// Fails with NotFound if absent. Copies; prefer GetView on hot paths.
  Result<std::string> Get(std::string_view key) const;
  /// Zero-copy read: the view aliases the record log and is valid until the
  /// next mutating call on this store.
  Result<std::string_view> GetView(std::string_view key) const;
  bool Contains(std::string_view key) const;
  /// Idempotent; OK even if absent.
  Status Delete(std::string_view key);

 private:
  // B+tree nodes; declared before Iterator so it can hold a leaf cursor.
  static constexpr int kLeafCap = 64;
  static constexpr int kInnerCap = 64;
  static constexpr int kMaxDepth = 16;
  static constexpr uint64_t kDeadPos = static_cast<uint64_t>(-1);

  /// Node-local key reference: the first 16 bytes inline (zero-padded) plus
  /// the full arena view. Comparisons touch the node's own cache lines and
  /// only dereference the arena on a prefix tie, which keeps B+tree binary
  /// searches from paying one cache miss per probed key.
  struct KeyRef {
    char pfx[16];
    std::string_view full;
  };
  struct LeafEntry {
    KeyRef key;
    uint32_t live_idx = 0;
  };
  struct Leaf {
    int n = 0;
    LeafEntry e[kLeafCap];
    Leaf* next = nullptr;
  };
  struct Inner {
    int n = 0;  // number of children
    KeyRef sep[kInnerCap - 1];
    void* child[kInnerCap];
    bool leaf_children = true;
  };

 public:
  /// Ordered forward iteration over live entries, up to an end bound.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    void Next() {
      ++idx_;
      Normalize();
    }
    std::string_view key() const { return leaf_->e[idx_].key.full; }
    std::string_view value() const;

   private:
    friend class LocalStore;
    Iterator(const LocalStore* store, const Leaf* leaf, int idx, std::string ub)
        : store_(store), leaf_(leaf), idx_(idx), ub_(std::move(ub)) {
      Normalize();
    }
    void Normalize();  // skip dead entries, hop leaves, apply the end bound

    const LocalStore* store_;
    const Leaf* leaf_;
    int idx_;
    std::string ub_;  // exclusive end bound; empty = unbounded
  };

  /// Iterator positioned at the first key >= `start` (no end bound).
  Iterator Seek(std::string_view start) const;
  /// Iterator over exactly the keys with the given prefix: positioned at the
  /// first such key, and Valid() turns false past the computed end bound
  /// (the smallest key greater than every key with the prefix).
  Iterator SeekPrefix(std::string_view prefix) const;

  /// Smallest string greater than every string with the given prefix, or ""
  /// if no such bound exists (prefix is empty or all-0xFF).
  static std::string PrefixUpperBound(std::string_view prefix);

  size_t entry_count() const { return hcount_; }
  /// Records currently in the log, live + dead. Shrinks on compaction and on
  /// a checkpointed recovery (retired WAL segments drop out entirely), so it
  /// is the CURRENT footprint, never the cumulative write volume.
  size_t log_size() const { return log_.size(); }
  const StoreStats& stats() const { return stats_; }
  /// Bytes currently held by the record arena (live + garbage).
  size_t arena_bytes() const { return arena_.bytes(); }
  /// Dead (superseded or deleted) share of the CURRENT log — the one
  /// compaction input: the larger of the dead fraction of log_size()
  /// records and of arena_bytes(). Records bound the index memory, bytes
  /// the arena; a few large dead values or many tiny dead records each
  /// trip it. Reclaimed space never re-counts as garbage: compaction and
  /// checkpointed recovery drop it from both the log and the arena.
  double dead_fraction() const;

  /// Crash-recovery entry point. With a WAL backend attached: discards ALL
  /// in-memory state and rebuilds from the newest checkpoint manifest plus a
  /// replay of only the segments past it (tail-only replay; cost is bounded
  /// by checkpoint_every_records, not store size). Without a WAL: discards
  /// the indexes and rebuilds them by replaying the in-memory log, verifying
  /// the log-structured invariant (a failure drill for tests).
  Status Recover();

  /// Publishes a WAL checkpoint now (no-op without a WAL backend): dense
  /// snapshot manifest + retirement of all sealed segments below it.
  Status Checkpoint();

  /// The attached WAL, or null. Exposed for stats and the churn harness's
  /// crash-timing fault hooks.
  wal::Wal* wal() { return wal_.get(); }

  /// Forces a compaction pass regardless of the garbage ratio.
  void Compact();

 private:
  /// Chunked append-only byte storage. Chunks are never reallocated, so
  /// record locations are stable until the arena itself is replaced.
  class Arena {
   public:
    /// Appends a||b contiguously; returns the start of the copy.
    const char* Append(std::string_view a, std::string_view b);
    size_t bytes() const { return bytes_; }

   private:
    static constexpr size_t kChunkBytes = 1 << 18;  // 256 KiB
    struct Chunk {
      std::unique_ptr<char[]> data;
      size_t used = 0;
      size_t cap = 0;
    };
    std::vector<Chunk> chunks_;
    size_t bytes_ = 0;
  };

  /// One record in the log: key then value, contiguous in the arena.
  struct Slot {
    const char* data = nullptr;
    uint32_t key_len = 0;
    uint32_t value_len = 0;
    bool is_delete = false;

    std::string_view key() const { return {data, key_len}; }
    std::string_view value() const { return {data + key_len, value_len}; }
    uint64_t bytes() const { return uint64_t{key_len} + value_len; }
  };

  /// Robin-hood open-addressing slot: probes are kept sorted by distance
  /// from their home bucket (insertion displaces richer entries; erasure
  /// backward-shifts), so lookups terminate early on a poorer slot. 8 bytes
  /// per slot — the 32-bit tag (low hash bits) is enough to derive the home
  /// bucket (capacity <= 2^32) and to filter keys before an arena compare.
  struct HashSlot {
    uint32_t tag = 0;
    uint32_t idx1 = 0;  // live index + 1; 0 marks an empty slot
  };

  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// `count_stats` is false on the recovery paths: replayed records land in
  /// the fresh log but must not inflate the cumulative write counters.
  uint64_t AppendRecord(bool is_delete, std::string_view key,
                        std::string_view value, bool count_stats = true);

  /// Slot of `key`, or kNoSlot. When absent and `miss` is non-null, the
  /// probe's stopping point is recorded so HashInsertAt can continue the
  /// robin-hood displacement without re-probing from the home bucket.
  struct HashMiss {
    size_t index = 0;
    size_t dist = 0;
  };
  size_t HashFind(uint64_t hash, std::string_view key,
                  HashMiss* miss = nullptr) const;
  void HashInsert(uint64_t hash, uint32_t live_idx);
  /// Continues an insert from a HashFind miss point (same table state).
  void HashInsertAt(HashMiss at, uint64_t hash, uint32_t live_idx);
  void HashEraseAt(size_t idx);
  /// Returns true if the table grew (invalidating any HashMiss).
  bool HashGrowIfNeeded();

  static KeyRef MakeKeyRef(std::string_view key);
  /// <0, 0, >0 like memcmp; resolves on the inline prefix when possible.
  static int CmpKey(const KeyRef& a, const KeyRef& b);
  /// Index of the child to descend into. `upper`: first separator > key
  /// (insert path — equal keys go right); otherwise first separator >= key
  /// (lower-bound path — equal keys may sit at the end of the left child).
  static int RouteChild(const Inner* in, const KeyRef& key, bool upper);

  Leaf* NewLeaf();
  Inner* NewInner();
  void TreeClear();
  void TreeInsert(std::string_view key, uint32_t live_idx);
  /// Leaf cursor at the first entry (dead or alive) with key >= `key`.
  std::pair<const Leaf*, int> TreeLowerBound(std::string_view key) const;
  /// Appends one live (key, pos) record to the indexes; used by the
  /// rebuild paths (Compact/Recover), which feed keys in sorted order.
  void IndexLiveRecord(uint64_t pos);
  /// Empties both indexes and the live-slot table (the log is untouched).
  void ClearIndexes();
  /// Appends a put record and points the indexes at it: an overwrite
  /// repoints the key's live slot, a new key gets one.
  void IndexPut(std::string_view key, std::string_view value, bool count_stats);
  /// Marks the live record at hash slot `hidx` dead and unindexes its key.
  void Unlink(size_t hidx);

  void MaybeCompact();
  void MaybeCheckpoint();
  /// In-memory-only rebuild (the seed behavior; used when wal_ is null).
  Status RecoverFromMemoryLog();

  StoreOptions options_;
  Arena arena_;
  std::vector<Slot> log_;

  // Live-slot table: both indexes address records through it, so an
  // overwrite updates one cell and a delete marks it kDeadPos — neither
  // touches the tree.
  std::vector<uint64_t> live_;

  // Insert-only B+tree over arena key views. Node storage is deque-backed
  // (stable addresses, bulk-freed on clear).
  std::deque<Leaf> leaves_;
  std::deque<Inner> inners_;
  void* root_ = nullptr;
  bool root_is_leaf_ = true;

  std::vector<HashSlot> htable_;
  size_t hcount_ = 0;  // == number of live keys
  uint64_t live_bytes_ = 0;  // key+value bytes of the live records

  // Durability: present iff StoreOptions::wal_backend was set.
  std::unique_ptr<wal::Wal> wal_;
  uint64_t appends_since_checkpoint_ = 0;

  // Mutable so read methods can count reads without a const_cast.
  mutable StoreStats stats_;
};

}  // namespace orchestra::localstore

#endif  // ORCHESTRA_LOCALSTORE_LOCAL_STORE_H_
