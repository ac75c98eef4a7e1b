#include "storage/page.h"

#include <zlib.h>

#include "common/log.h"
#include "common/serial.h"
#include "hash/sha1.h"

namespace orchestra::storage {

void TupleId::EncodeTo(Writer* w) const {
  w->PutString(key_bytes);
  w->PutVarint64(epoch);
}

Status TupleId::DecodeFrom(Reader* r, TupleId* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->key_bytes));
  return r->GetVarint64(&out->epoch);
}

namespace {
// Single-threaded simulation: a plain counter is sufficient.
uint64_t g_tuple_key_hash_count = 0;
}  // namespace

uint64_t TupleKeyHashCount() { return g_tuple_key_hash_count; }

HashId TupleKeyHash(std::string_view key_bytes) {
  g_tuple_key_hash_count += 1;
  Sha1Hasher h;
  h.Update("T\x1f");
  h.Update(key_bytes);
  return HashId::FromDigest(h.Finish());
}

HashId PlacementHash(const RelationDef& def, std::string_view key_bytes) {
  uint32_t arity = def.effective_partition_arity();
  if (arity >= def.schema.key_arity()) return TupleKeyHash(key_bytes);
  auto prefix = PartitionPrefixOfKey(arity, key_bytes);
  if (!prefix.ok()) return TupleKeyHash(key_bytes);
  return TupleKeyHash(*prefix);
}

HashId CoordinatorHash(const std::string& relation, Epoch epoch) {
  Sha1Hasher h;
  h.Update("C\x1f");
  h.Update(relation);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(epoch >> (8 * i));
  h.Update(buf, sizeof(buf));
  return HashId::FromDigest(h.Finish());
}

HashId ClaimHash(Epoch epoch) {
  Sha1Hasher h;
  h.Update("E\x1f");
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(epoch >> (8 * i));
  h.Update(buf, sizeof(buf));
  return HashId::FromDigest(h.Finish());
}

HashId PartitionBegin(uint32_t partition, uint32_t num_partitions) {
  ORC_CHECK(partition < num_partitions, "partition out of range");
  return HashId::SpacePartition(num_partitions).MultiplyBy(partition);
}

HashId PartitionEnd(uint32_t partition, uint32_t num_partitions) {
  if (partition + 1 == num_partitions) return HashId::Zero();  // wraps
  return HashId::SpacePartition(num_partitions).MultiplyBy(partition + 1);
}

uint32_t PartitionIndexFor(const HashId& h, uint32_t num_partitions) {
  // Binary search over boundaries; num_partitions is small (O(nodes)).
  HashId width = HashId::SpacePartition(num_partitions);
  uint32_t lo = 0, hi = num_partitions - 1;
  while (lo < hi) {
    uint32_t mid = (lo + hi + 1) / 2;
    if (width.MultiplyBy(mid) <= h) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

HashId PartitionHome(uint32_t partition, uint32_t num_partitions) {
  HashId begin = PartitionBegin(partition, num_partitions);
  HashId end = PartitionEnd(partition, num_partitions);
  return begin.ClockwiseMidpoint(end);
}

void PageId::EncodeTo(Writer* w) const {
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(partition);
}

Status PageId::DecodeFrom(Reader* r, PageId* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  return r->GetVarint32(&out->partition);
}

std::string PageId::ToString() const {
  return relation + "@" + std::to_string(epoch) + "#" + std::to_string(partition);
}

void PageDescriptor::EncodeTo(Writer* w) const {
  id.EncodeTo(w);
  w->PutVarint32(num_partitions);
}

Status PageDescriptor::DecodeFrom(Reader* r, PageDescriptor* out) {
  ORC_RETURN_IF_ERROR(PageId::DecodeFrom(r, &out->id));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->num_partitions));
  if (out->num_partitions == 0 || out->id.partition >= out->num_partitions) {
    return Status::Corruption("page descriptor: bad partition");
  }
  return Status::OK();
}

void Page::EncodeTo(Writer* w) const {
  ORC_CHECK(hashes.size() == ids.size(), "page: hashes not parallel to ids");
  desc.EncodeTo(w);
  w->PutVarint64(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i].EncodeTo(w);
    hashes[i].EncodeTo(w);
  }
}

Status Page::DecodeFrom(Reader* r, Page* out) {
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->desc));
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  out->ids.clear();
  out->ids.reserve(n);
  out->hashes.clear();
  out->hashes.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TupleId id;
    ORC_RETURN_IF_ERROR(TupleId::DecodeFrom(r, &id));
    HashId h;
    ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &h));
    out->ids.push_back(std::move(id));
    out->hashes.push_back(h);
  }
  return Status::OK();
}

uint32_t PageCrc(std::string_view encoded_page) {
  return static_cast<uint32_t>(
      crc32(0, reinterpret_cast<const Bytef*>(encoded_page.data()),
            static_cast<uInt>(encoded_page.size())));
}

namespace {

// Page order: (placement hash, key bytes).
int ComparePageOrder(const HashId& ha, std::string_view ka, const HashId& hb,
                     std::string_view kb) {
  if (ha != hb) return ha < hb ? -1 : 1;
  int c = ka.compare(kb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

// One encoded page entry (TupleId, then HashId), viewed in place.
struct EntryView {
  std::string_view raw;  // the whole encoded entry
  std::string_view key;
  HashId hash;
};

Status NextEntry(Reader* r, EntryView* e) {
  std::string_view start = r->RemainingView();
  uint64_t epoch;
  ORC_RETURN_IF_ERROR(r->GetStringView(&e->key));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&epoch));
  ORC_RETURN_IF_ERROR(HashId::DecodeFrom(r, &e->hash));
  e->raw = start.substr(0, start.size() - r->remaining());
  return Status::OK();
}

}  // namespace

void PageWrite::EncodeFull(std::string_view encoded_page, Writer* w) {
  w->PutU8(static_cast<uint8_t>(Kind::kFull));
  w->PutString(encoded_page);
}

void PageWrite::EncodeDelta(const Page& base, const Page& page, uint32_t crc,
                            Writer* w) {
  // One merge walk over both versions in page order.
  Writer removed, upserts;
  const size_t nb = base.ids.size(), nn = page.ids.size();
  size_t i = 0, j = 0;
  while (i < nb || j < nn) {
    int c = i == nb   ? 1
            : j == nn ? -1
                      : ComparePageOrder(base.hashes[i], base.ids[i].key_bytes,
                                         page.hashes[j], page.ids[j].key_bytes);
    if (c < 0) {
      removed.PutString(base.ids[i++].key_bytes);
      continue;
    }
    if (c == 0 && base.ids[i].epoch == page.ids[j].epoch) {
      ++i;
      ++j;
      continue;
    }
    if (c == 0) ++i;  // overwritten
    page.ids[j].EncodeTo(&upserts);
    page.hashes[j].EncodeTo(&upserts);
    ++j;
  }
  w->PutU8(static_cast<uint8_t>(Kind::kDelta));
  page.desc.EncodeTo(w);
  w->PutVarint64(base.desc.id.epoch);
  w->PutString(removed.data());
  w->PutString(upserts.data());
  w->PutU32(crc);
}

Status PageWrite::DecodeFrom(Reader* r, PageWrite* out) {
  uint8_t kind;
  ORC_RETURN_IF_ERROR(r->GetU8(&kind));
  if (kind == static_cast<uint8_t>(Kind::kFull)) {
    out->kind = Kind::kFull;
    return r->GetStringView(&out->page_bytes);
  }
  if (kind != static_cast<uint8_t>(Kind::kDelta)) {
    return Status::Corruption("page write: unknown entry kind");
  }
  out->kind = Kind::kDelta;
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &out->desc));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->base_epoch));
  ORC_RETURN_IF_ERROR(r->GetStringView(&out->removed));
  ORC_RETURN_IF_ERROR(r->GetStringView(&out->upserts));
  return r->GetU32(&out->crc);
}

Status MergePageDelta(std::string_view base_bytes, const PageWrite& delta,
                      std::string* out, uint64_t* entries) {
  Reader base(base_bytes);
  PageDescriptor base_desc;
  uint64_t base_left;
  ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(&base, &base_desc));
  ORC_RETURN_IF_ERROR(base.GetVarint64(&base_left));
  Reader removed(delta.removed), upserts(delta.upserts);

  // Entries are copied as raw byte spans: nothing is decoded into a Page.
  EntryView b, u;
  std::string_view gone;
  bool have_b = false, have_u = false, have_gone = false;
  auto next_b = [&]() -> Status {
    have_b = base_left > 0;
    if (!have_b) return Status::OK();
    --base_left;
    return NextEntry(&base, &b);
  };
  auto next_u = [&]() -> Status {
    have_u = !upserts.AtEnd();
    return have_u ? NextEntry(&upserts, &u) : Status::OK();
  };
  auto next_gone = [&]() -> Status {
    have_gone = !removed.AtEnd();
    return have_gone ? removed.GetStringView(&gone) : Status::OK();
  };
  ORC_RETURN_IF_ERROR(next_b());
  ORC_RETURN_IF_ERROR(next_u());
  ORC_RETURN_IF_ERROR(next_gone());

  Writer body(base.remaining() + delta.upserts.size());
  uint64_t n = 0;
  while (have_b || have_u) {
    int c = !have_b   ? 1
            : !have_u ? -1
                      : ComparePageOrder(b.hash, b.key, u.hash, u.key);
    if (c >= 0) {  // insert, or overwrite of the base entry
      body.PutRaw(u.raw.data(), u.raw.size());
      ++n;
      ORC_RETURN_IF_ERROR(next_u());
      if (c == 0) ORC_RETURN_IF_ERROR(next_b());
      continue;
    }
    if (have_gone && gone == b.key) {
      ORC_RETURN_IF_ERROR(next_gone());
    } else {
      body.PutRaw(b.raw.data(), b.raw.size());
      ++n;
    }
    ORC_RETURN_IF_ERROR(next_b());
  }
  if (have_gone || !base.AtEnd()) {
    return Status::Corruption("page delta does not apply to its base");
  }

  Writer head;
  delta.desc.EncodeTo(&head);
  head.PutVarint64(n);
  out->clear();
  out->reserve(head.size() + body.size());
  out->append(head.data());
  out->append(body.data());
  if (PageCrc(*out) != delta.crc) {
    return Status::Corruption("page delta: CRC mismatch");
  }
  *entries = n;
  return Status::OK();
}

void EpochClaimRecord::EncodeTo(Writer* w) const {
  w->PutVarint32(participant);
  w->PutVarint32(node);
  w->PutBool(committed);
  w->PutVarint64(nonce);
  w->PutBool(fenced);
  w->PutBool(purged);
}

Status EpochClaimRecord::DecodeFrom(Reader* r, EpochClaimRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->node));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->committed));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->nonce));
  ORC_RETURN_IF_ERROR(r->GetBool(&out->fenced));
  return r->GetBool(&out->purged);
}

void CoordinatorRecord::EncodeTo(Writer* w) const {
  w->PutString(relation);
  w->PutVarint64(epoch);
  w->PutVarint32(participant);
  w->PutVarint64(pages.size());
  for (const auto& p : pages) p.EncodeTo(w);
}

Status CoordinatorRecord::DecodeFrom(Reader* r, CoordinatorRecord* out) {
  ORC_RETURN_IF_ERROR(r->GetString(&out->relation));
  ORC_RETURN_IF_ERROR(r->GetVarint64(&out->epoch));
  ORC_RETURN_IF_ERROR(r->GetVarint32(&out->participant));
  uint64_t n;
  ORC_RETURN_IF_ERROR(r->GetVarint64(&n));
  out->pages.clear();
  out->pages.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PageDescriptor d;
    ORC_RETURN_IF_ERROR(PageDescriptor::DecodeFrom(r, &d));
    out->pages.push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace orchestra::storage
