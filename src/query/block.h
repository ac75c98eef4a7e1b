// Tuple blocks: the unit of inter-node dataflow. "For performance, the query
// processor batches tuples into blocks by destination, compressing them
// (using lightweight Zip-based compression) and marshalling them in a format
// that exploits their commonalities" (§V-A). Each row carries its provenance
// node-set (the taint used for duplicate-free recovery, §V-D) and blocks
// carry the execution phase. A block stream (one sender, one Rehash or Ship
// op, one receiver) ends with a block flagged `eos`; its `seq` is the number
// of blocks in the stream, so the receiver can tell that none went missing.
#ifndef ORCHESTRA_QUERY_BLOCK_H_
#define ORCHESTRA_QUERY_BLOCK_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "net/network.h"
#include "storage/value.h"

namespace orchestra::query {

/// A tuple in flight: values plus the set of nodes that processed it or any
/// tuple used to create it.
struct BlockRow {
  storage::Tuple tuple;
  DynamicBitset taint;
};

struct TupleBlock {
  uint64_t query_id = 0;
  int32_t dest_op = -1;   // the Rehash (or Ship) op this block belongs to
  uint32_t phase = 0;
  /// 1-based position in the (sender, dest_op, receiver) stream, counted
  /// across phases: an `eos` block's seq is the stream's block count.
  uint32_t seq = 0;
  /// Last block of the sender's stream for `phase` (end of stream, §V-B).
  bool eos = false;
  net::NodeId sender = net::kInvalidNode;
  std::vector<BlockRow> rows;

  /// Serializes and compresses. Taints are encoded compactly; rows are
  /// concatenated before compression so shared prefixes/values deflate well.
  std::string Encode() const;
  static Status Decode(std::string_view data, TupleBlock* out);

  /// Uncompressed payload size estimate (for CPU cost accounting).
  size_t ApproxRawBytes() const;
};

}  // namespace orchestra::query

#endif  // ORCHESTRA_QUERY_BLOCK_H_
