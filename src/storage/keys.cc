#include "storage/keys.h"

namespace orchestra::storage::keys {

void AppendLenPrefixed(std::string* out, std::string_view s) {
  uint64_t v = s.size();
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
  out->append(s);
}

void AppendEpochBE(std::string* out, Epoch e) {
  for (int i = 7; i >= 0; --i) out->push_back(static_cast<char>(e >> (8 * i)));
}

std::string Data(std::string_view relation, const HashId& hash,
                 std::string_view key_bytes, Epoch epoch) {
  std::string k = DataPrefix(relation);
  hash.AppendBigEndian(&k);
  AppendLenPrefixed(&k, key_bytes);
  AppendEpochBE(&k, epoch);
  return k;
}

std::string DataPrefix(std::string_view relation) {
  std::string k = "D";
  AppendLenPrefixed(&k, relation);
  return k;
}

Status GetWireId(Reader* r, WireId* out) {
  ORC_RETURN_IF_ERROR(r->GetRawView(&out->hash_be20, 20));
  ORC_RETURN_IF_ERROR(r->GetStringView(&out->key_bytes));
  return r->GetVarint64(&out->epoch);
}

std::string Data(std::string_view relation, const WireId& id) {
  std::string k = DataPrefix(relation);
  AppendDataFields(&k, id);
  return k;
}

void AppendDataFields(std::string* out, const WireId& id) {
  out->append(id.hash_be20);
  AppendLenPrefixed(out, id.key_bytes);
  AppendEpochBE(out, id.epoch);
}

Writer& IdListWriter::Add(const HashId& hash, const TupleId& id) {
  hash_be_.clear();
  hash.AppendBigEndian(&hash_be_);
  entries_.PutRaw(hash_be_.data(), hash_be_.size());
  id.EncodeTo(&entries_);
  ++count_;
  return entries_;
}

void IdListWriter::EncodeTo(Writer* w) const {
  w->PutVarint64(count_);
  w->PutRaw(entries().data(), entries().size());
}

std::string PageRec(std::string_view relation, Epoch epoch, uint32_t partition) {
  std::string k = "P";
  AppendLenPrefixed(&k, relation);
  for (int i = 3; i >= 0; --i) k.push_back(static_cast<char>(partition >> (8 * i)));
  AppendEpochBE(&k, epoch);
  return k;
}

std::string Coord(std::string_view relation, Epoch epoch) {
  std::string k = "C";
  AppendLenPrefixed(&k, relation);
  AppendEpochBE(&k, epoch);
  return k;
}

std::string Catalog(std::string_view relation) {
  std::string k = "M";
  AppendLenPrefixed(&k, relation);
  return k;
}

std::string EpochClaim(Epoch epoch) {
  std::string k = "E";
  AppendEpochBE(&k, epoch);
  return k;
}

// --- Key parsers ------------------------------------------------------------
// Built on Reader (the same decoder as the wire formats) for the varint
// length prefixes; the big-endian integers are key-layout-specific (Reader's
// fixed-width integers are little-endian) and decoded here.

namespace {

bool ReadEpochBE(Reader* r, Epoch* out) {
  std::string_view raw;
  if (!r->GetRawView(&raw, 8).ok()) return false;
  Epoch e = 0;
  for (int i = 0; i < 8; ++i) e = (e << 8) | static_cast<unsigned char>(raw[i]);
  *out = e;
  return true;
}

bool ReadU32BE(Reader* r, uint32_t* out) {
  std::string_view raw;
  if (!r->GetRawView(&raw, 4).ok()) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | static_cast<unsigned char>(raw[i]);
  *out = v;
  return true;
}

}  // namespace

bool ParseData(std::string_view key, ParsedDataKey* out) {
  if (key.empty() || key[0] != 'D') return false;
  Reader r(key.substr(1));
  return r.GetStringView(&out->relation).ok() &&
         r.GetRawView(&out->hash_be20, 20).ok() &&
         r.GetStringView(&out->key_bytes).ok() && ReadEpochBE(&r, &out->epoch) &&
         r.AtEnd();
}

bool ParsePageRec(std::string_view key, ParsedPageKey* out) {
  if (key.empty() || key[0] != 'P') return false;
  Reader r(key.substr(1));
  return r.GetStringView(&out->relation).ok() && ReadU32BE(&r, &out->partition) &&
         ReadEpochBE(&r, &out->epoch) && r.AtEnd();
}

bool ParseCoord(std::string_view key, ParsedCoordKey* out) {
  if (key.empty() || key[0] != 'C') return false;
  Reader r(key.substr(1));
  return r.GetStringView(&out->relation).ok() && ReadEpochBE(&r, &out->epoch) &&
         r.AtEnd();
}

bool ParseClaim(std::string_view key, Epoch* out) {
  if (key.empty() || key[0] != 'E') return false;
  Reader r(key.substr(1));
  return ReadEpochBE(&r, out) && r.AtEnd();
}

bool ParseVersionEpoch(std::string_view key, Epoch* out) {
  switch (Tag(key)) {
    case kDataTag: {
      ParsedDataKey dk;
      if (!ParseData(key, &dk)) return false;
      *out = dk.epoch;
      return true;
    }
    case kPageTag: {
      ParsedPageKey pk;
      if (!ParsePageRec(key, &pk)) return false;
      *out = pk.epoch;
      return true;
    }
    case kCoordTag: {
      ParsedCoordKey ck;
      if (!ParseCoord(key, &ck)) return false;
      *out = ck.epoch;
      return true;
    }
    case kClaimTag:
      return ParseClaim(key, out);
    default:
      return false;
  }
}

std::string_view VersionGroupPrefix(std::string_view key) {
  if (key.size() < 9) return {};  // tag + 8-byte epoch minimum
  return key.substr(0, key.size() - 8);
}

}  // namespace orchestra::storage::keys
