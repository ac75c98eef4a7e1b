// The versioned page scheme of §IV (Fig. 3): relations are divided into
// pages, each covering a fixed partition of the tuple-key-hash space. A page
// version lists the TupleIds present in that partition at the epoch it was
// last modified. Coordinator records tie an epoch to its page versions;
// unchanged pages are shared across epochs (copy-on-write, as in CFS/
// log-structured filesystems).
#ifndef ORCHESTRA_STORAGE_PAGE_H_
#define ORCHESTRA_STORAGE_PAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "hash/hash_id.h"
#include "storage/schema.h"

namespace orchestra::storage {

/// Epoch: the global logical timestamp; advances after each published batch.
using Epoch = uint64_t;

/// Participant identity: one per collaborating writer (§II — participants
/// publish disjoint update logs). Epoch claims and coordinator records are
/// tagged with the publishing participant so concurrent publishers can
/// detect same-epoch contention deterministically; 0 means "unset" and is
/// never a valid published identity (Publisher defaults to node id + 1).
using ParticipantId = uint32_t;

/// "The Tuple ID is the key attribute of a tuple and the epoch in which it
/// was last modified" (§IV). key_bytes is the order-preserving encoding of
/// the key attributes; the tuple's hash key is derived from it.
struct TupleId {
  std::string key_bytes;
  Epoch epoch = 0;

  bool operator==(const TupleId&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, TupleId* out);
};

/// Hash key of a tuple: SHA-1 over its key bytes (relation-independent, so
/// that a relation partitioned on its key is already co-partitioned with any
/// rehash on equal join values — the paper's Fig. 6 plan rehashes R but not
/// S). Determines the data storage node (Fig. 3).
HashId TupleKeyHash(std::string_view key_bytes);

/// Placement hash of a tuple under its relation's partitioning rule: hashes
/// only the placement prefix of the key bytes (RelationDef::
/// partition_key_arity). With the default (all key attributes) this equals
/// TupleKeyHash(key_bytes).
HashId PlacementHash(const RelationDef& def, std::string_view key_bytes);

/// Number of TupleKeyHash (SHA-1 tuple-hash) invocations since process
/// start. The publish pipeline computes each tuple's placement hash exactly
/// once and ships it with the tuple/page wire formats; tests assert the
/// invariant via deltas of this counter.
uint64_t TupleKeyHashCount();

/// Hash location of the relation coordinator for (relation, epoch).
HashId CoordinatorHash(const std::string& relation, Epoch epoch);

/// Hash location of the epoch-claim record for `epoch` — the single
/// serialization point concurrent publishers race through before writing
/// anything at that epoch (kClaimEpoch). Distinct from every relation's
/// CoordinatorHash so claim traffic spreads independently.
HashId ClaimHash(Epoch epoch);

/// The partition boundaries: partition i of P covers
/// [W*i, W*(i+1)) with W = floor(2^160 / P); the last partition absorbs the
/// remainder up to 2^160.
HashId PartitionBegin(uint32_t partition, uint32_t num_partitions);
/// End of partition (2^160 wraps to 0 for the last).
HashId PartitionEnd(uint32_t partition, uint32_t num_partitions);
/// Which partition a hash falls in.
uint32_t PartitionIndexFor(const HashId& h, uint32_t num_partitions);
/// The page's home = midpoint of its range; placing the index entry there
/// co-locates it with the bulk of its tuples (§IV).
HashId PartitionHome(uint32_t partition, uint32_t num_partitions);

/// "The index page ID consists of the relation name, the epoch in which it
/// was last modified, and a unique identifier for that relation and epoch"
/// (our unique id is the partition index) "... and the hash ID where the
/// index page is stored" (derivable via PartitionHome).
struct PageId {
  std::string relation;
  Epoch epoch = 0;       // epoch the page was last modified
  uint32_t partition = 0;

  bool operator==(const PageId&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, PageId* out);
  std::string ToString() const;
};

/// Entry in a coordinator record: page id + its tuple-ID hash range.
struct PageDescriptor {
  PageId id;
  uint32_t num_partitions = 0;  // of the relation, to derive ranges

  HashId range_begin() const { return PartitionBegin(id.partition, num_partitions); }
  HashId range_end() const { return PartitionEnd(id.partition, num_partitions); }
  HashId home() const { return PartitionHome(id.partition, num_partitions); }

  bool operator==(const PageDescriptor&) const = default;
  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, PageDescriptor* out);
};

/// A page version: the TupleIds in this partition at this epoch, sorted by
/// (hash, key_bytes), the page order delta page writes merge in.
/// `hashes[i]` is the placement hash of `ids[i]`, computed once at publish
/// time and carried in the wire/storage format so index nodes route ids and
/// data nodes point-look-up each version without recomputing SHA-1.
struct Page {
  PageDescriptor desc;
  std::vector<TupleId> ids;
  std::vector<HashId> hashes;  // parallel to ids

  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, Page* out);
};

/// CRC-32 (zlib polynomial) of a page's full encoding (Page::EncodeTo): the
/// end-to-end check a delta-written page version is rebuilt under.
uint32_t PageCrc(std::string_view encoded_page);

/// One entry of a kPutPage frame (docs/WIRE_FORMATS.md). A page version
/// travels whole, or as a delta against the base version the publisher
/// built it from (same relation and partition, older epoch): the base
/// entries it drops (`removed`: key bytes only), then the entries it adds or
/// overwrites (`upserts`: encoded exactly as in a page), both in page order,
/// then the CRC-32 of the new version's full encoding.
struct PageWrite {
  enum class Kind : uint8_t { kFull = 0, kDelta = 1 };
  Kind kind = Kind::kFull;
  std::string_view page_bytes;  // kFull: the encoded page
  PageDescriptor desc;          // kDelta: the new version's descriptor
  Epoch base_epoch = 0;         // kDelta
  std::string_view removed;     // kDelta: packed `string key` list
  std::string_view upserts;     // kDelta: packed page entries
  uint32_t crc = 0;             // kDelta

  /// Appends a full entry for an already-encoded page.
  static void EncodeFull(std::string_view encoded_page, Writer* w);
  /// Appends a delta entry turning `base` into `page` (same relation and
  /// partition); `crc` is PageCrc of `page`'s full encoding.
  static void EncodeDelta(const Page& base, const Page& page, uint32_t crc,
                          Writer* w);
  /// Decodes one entry; the views alias the frame.
  static Status DecodeFrom(Reader* r, PageWrite* out);
};

/// Rebuilds a delta entry's page version from the stored encoding of its
/// base by a byte-level merge of the encoded entries, producing exactly the
/// bytes Page::EncodeTo would. Corruption when the delta does not apply to
/// `base_bytes` or the result fails the CRC; `*entries` is the entry count.
Status MergePageDelta(std::string_view base_bytes, const PageWrite& delta,
                      std::string* out, uint64_t* entries);

/// The life of an epoch claim, weakest first. The declaration order IS the
/// merge-strength lattice (EpochClaimRecord::Merge): a commit is a fact
/// everything yields to; a purged burn carries purge authority (its fence
/// round reached unanimity, so the epoch can never commit); a burn promise
/// is a fence grant whose round may yet fail, so it refuses claims and
/// confirms here but must never delete data; a plain claim pins the epoch
/// for its owner's publish.
enum class ClaimState : uint8_t { kClaimed, kBurnPromised, kPurged, kCommitted };

/// Value of an epoch-claim record ('E' keys, see keys::EpochClaim): which
/// participant owns the epoch, from which node and claim attempt (`nonce` —
/// releases and idempotent re-grants are instance-exact), and its state.
/// Only committed epochs are reported by discovery; a burned record keeps
/// naming the fenced instance. One codec for every site that touches claim
/// bytes: the claim handlers, release, confirm, replica-push merge, restart
/// rebuild, and the publisher's commit probe.
struct EpochClaimRecord {
  ParticipantId participant = 0;
  uint32_t node = 0;
  ClaimState state = ClaimState::kClaimed;
  uint64_t nonce = 0;

  bool operator==(const EpochClaimRecord&) const = default;

  /// The lattice join of a stored record and an incoming one: the higher
  /// state wins, and a tie keeps the stored record.
  static EpochClaimRecord Merge(const std::optional<EpochClaimRecord>& mine,
                                const EpochClaimRecord& incoming) {
    return mine && mine->state >= incoming.state ? *mine : incoming;
  }

  void EncodeTo(Writer* w) const;
  /// Corruption on a truncated record or an unknown state byte.
  static Status DecodeFrom(Reader* r, EpochClaimRecord* out);
};

/// "Relation @epoch -> list of pages' IDs & tuple ID hash ranges" (Fig. 3).
/// Only non-empty partitions carry a descriptor. `participant` tags the
/// epoch's writer: storage nodes refuse a conflicting same-epoch record from
/// a different participant with kEpochTaken (first committed writer wins),
/// which is the authoritative commit-time gate of multi-writer publishing.
struct CoordinatorRecord {
  std::string relation;
  Epoch epoch = 0;
  ParticipantId participant = 0;
  std::vector<PageDescriptor> pages;

  void EncodeTo(Writer* w) const;
  static Status DecodeFrom(Reader* r, CoordinatorRecord* out);
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_PAGE_H_
