// LocalStore key layouts for the versioned storage roles one node plays
// simultaneously (Fig. 3): data storage node, index node, inverse node, and
// relation coordinator. Layouts are prefix-free across namespaces and
// relations, and ordered so that the versions of one data key, page
// partition or relation's coordinator records sit together oldest-first
// (the GC retirement pass walks them that way). The id list below carries a
// data key's fields on the wire, so it lives with the key layouts.
#ifndef ORCHESTRA_STORAGE_KEYS_H_
#define ORCHESTRA_STORAGE_KEYS_H_

#include <string>
#include <string_view>

#include "common/serial.h"
#include "hash/hash_id.h"
#include "storage/page.h"

namespace orchestra::storage::keys {

// Namespace tag bytes — the first byte of every stored key. These constants
// and the builders/parsers below are the ONE codec for stored-key bytes;
// dispatching on a raw character literal or slicing key bytes by hand
// anywhere else is a codec-unity lint violation
// (docs/STATIC_ANALYSIS.md#codec-rawkey).
inline constexpr char kDataTag = 'D';
inline constexpr char kPageTag = 'P';
inline constexpr char kInverseTag = 'I';
inline constexpr char kCoordTag = 'C';
inline constexpr char kCatalogTag = 'M';
inline constexpr char kClaimTag = 'E';

/// Namespace tag of a stored key ('\0' for the empty key). The only
/// sanctioned way to dispatch on a key's record family.
inline char Tag(std::string_view key) { return key.empty() ? '\0' : key[0]; }

/// One-byte seek prefix for a whole namespace (e.g. the GC sweeps).
inline std::string TagPrefix(char tag) { return std::string(1, tag); }

/// Varint-length-prefixed string: makes multi-part keys prefix-free.
void AppendLenPrefixed(std::string* out, std::string_view s);
void AppendEpochBE(std::string* out, Epoch e);

/// Data record: 'D' <rel> <hash:20B BE> <key_bytes:len-prefixed> <epoch:8B BE>
std::string Data(std::string_view relation, const HashId& hash,
                 std::string_view key_bytes, Epoch epoch);
/// Prefix of all data records of a relation.
std::string DataPrefix(std::string_view relation);

// --- Id lists ---------------------------------------------------------------
// kFetchTuples and kQueryFetch name the tuple versions to read as an id list,
// and kPutTuples leads every tuple with the same entry: per id,
// hash20 | TupleId (string key_bytes, varint64 epoch). hash20 is the
// placement hash in its data-key form (20 bytes, big-endian), computed once
// by the publisher and carried in pages, so no receiver recomputes SHA-1.
// This is the layout's one encoder and decoder
// (docs/STATIC_ANALYSIS.md#codec-idlist).

/// One decoded id-list entry; the views alias the frame.
struct WireId {
  std::string_view hash_be20;
  std::string_view key_bytes;
  Epoch epoch = 0;
};
Status GetWireId(Reader* r, WireId* out);

/// Data record key of a wire id (no SHA-1, no HashId decode).
std::string Data(std::string_view relation, const WireId& id);
/// Appends the part of a data key after DataPrefix: a reader of many ids
/// reuses one key buffer, cut back to the prefix before each id.
void AppendDataFields(std::string* out, const WireId& id);

/// Builds the entries of an id list; frames put the count first.
class IdListWriter {
 public:
  /// Appends one entry and returns the entry writer, where a kPutTuples
  /// entry puts its tuple bytes next.
  Writer& Add(const HashId& hash, const TupleId& id);
  uint64_t count() const { return count_; }
  /// The entries without the count, for a reader on this node.
  std::string_view entries() const { return entries_.data(); }
  /// Puts varint64 count, then the entries.
  void EncodeTo(Writer* w) const;

 private:
  Writer entries_;
  uint64_t count_ = 0;
  std::string hash_be_;  // reused 20-byte scratch: no per-id allocation
};

/// Index-node page record: 'P' <rel> <partition:4B BE> <epoch:8B BE>
std::string PageRec(std::string_view relation, Epoch epoch, uint32_t partition);

/// Inverse-node record: 'I' <rel> <partition:4B BE>  ->  latest PageId.
/// "look up the page holding the old version of the tuple using an inverse
/// node" (§IV).
std::string Inverse(std::string_view relation, uint32_t partition);

/// Relation-coordinator record: 'C' <rel> <epoch:8B BE>
std::string Coord(std::string_view relation, Epoch epoch);

/// Catalog entry: 'M' <rel>
std::string Catalog(std::string_view relation);

/// Epoch-claim record: 'E' <epoch:8B BE>  ->  (participant, node) of the
/// writer that owns the epoch. Replicated at ClaimHash(epoch); the claim is
/// the pre-write serialization point of multi-writer publishing (kClaimEpoch)
/// and is retired by GC like coordinator records once below the watermark.
std::string EpochClaim(Epoch epoch);

// --- Inverse parsers, used by the GC retirement pass --------------------
// Each returns false on malformed input (wrong tag, truncation, trailing
// bytes). The parsed views alias `key`.

/// Fields of a data-record key: relation, 20-byte BE hash, key bytes, epoch.
struct ParsedDataKey {
  std::string_view relation;
  std::string_view hash_be20;
  std::string_view key_bytes;
  Epoch epoch = 0;
};
bool ParseData(std::string_view key, ParsedDataKey* out);

/// Fields of a page-record key: relation, partition, epoch.
struct ParsedPageKey {
  std::string_view relation;
  uint32_t partition = 0;
  Epoch epoch = 0;
};
bool ParsePageRec(std::string_view key, ParsedPageKey* out);

/// Fields of a coordinator-record key: relation, epoch.
struct ParsedCoordKey {
  std::string_view relation;
  Epoch epoch = 0;
};
bool ParseCoord(std::string_view key, ParsedCoordKey* out);

/// Epoch of an epoch-claim key.
bool ParseClaim(std::string_view key, Epoch* out);

/// Epoch of a versioned key — a data, page, coordinator or claim record —
/// through its family's parser; false for other families and malformed keys.
bool ParseVersionEpoch(std::string_view key, Epoch* out);

/// Fields of an inverse-node key: relation, partition (no epoch — the value
/// holds the latest PageId).
struct ParsedInverseKey {
  std::string_view relation;
  uint32_t partition = 0;
};
bool ParseInverse(std::string_view key, ParsedInverseKey* out);

/// Version-group prefix of a data or page key: the key minus its trailing
/// 8-byte big-endian epoch. Keys of one group differ only in epoch and sort
/// oldest-first, which is what the GC retirement pass walks. Returns an
/// empty view for keys too short to carry an epoch suffix.
std::string_view VersionGroupPrefix(std::string_view key);

}  // namespace orchestra::storage::keys

#endif  // ORCHESTRA_STORAGE_KEYS_H_
