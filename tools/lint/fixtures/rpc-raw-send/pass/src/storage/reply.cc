#include "net/rpc.h"

namespace orchestra::storage {
// Replies go through the lifecycle layer's envelope encoder.
void Good(net::NodeHost* host, net::NodeId to, uint64_t req_id,
          std::string body) {
  // lint:allow(rpc-reply): this fixture is the service's one dispatcher.
  net::RpcClient::SendReply(host, to, net::ServiceId::kStorage, 1, req_id,
                            Status::OK(), std::move(body));
}
}  // namespace orchestra::storage
