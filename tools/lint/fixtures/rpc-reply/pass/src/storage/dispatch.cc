#include "net/rpc.h"

namespace orchestra::storage {
// Handlers return their status; the dispatcher sends the one reply.
Status HandleGet(bool bad) {
  return bad ? Status::Corruption("bad body") : Status::OK();
}

void Dispatch(net::NodeHost* host, net::NodeId to, uint64_t req_id, bool bad) {
  Status st = HandleGet(bad);
  // lint:allow(rpc-reply): the dispatcher replies once for every request.
  net::RpcClient::SendReply(host, to, net::ServiceId::kStorage, 1, req_id, st,
                            {});
}
}  // namespace orchestra::storage
