// The wire unit of the simulated network fabric.  One Frame is one datagram
// on a net::Link; net::Endpoint demultiplexes arriving frames by kind:
// kRequest/kResponse carry the RPC plane, kHeartbeat the liveness plane
// (net::Membership).  kData is a raw datagram that a bare Link carries like
// any other frame and that no Endpoint plane consumes.
//
// Frames are plain structs rather than serialized byte strings: the paper's
// Sect. 3.2 fabric only relies on *which* notifications arrive, in *what*
// order, after *what* losses — properties the link fault models exercise —
// not on an encoding.  Keeping the fields typed spares every hop a
// parse/format round trip while preserving the lossy-channel semantics.
#pragma once

#include <cstdint>
#include <string>

namespace aft::net {

enum class FrameKind : std::uint8_t {
  kData,       ///< raw datagram (Link-level use; Endpoint ignores it)
  kRequest,    ///< RPC request (id = call id, aux = attempt)
  kResponse,   ///< RPC response (ok = handler verdict, echoes id/aux)
  kHeartbeat,  ///< liveness beat (id = beat sequence, origin = sender node)
};

[[nodiscard]] const char* to_string(FrameKind kind) noexcept;

struct Frame {
  FrameKind kind = FrameKind::kData;
  bool ok = true;           ///< response verdict (meaningful for kResponse)
  /// Server pushback (kResponse only): the request was admitted to the wire
  /// but the service shed it (admission control / overload).  Distinct from
  /// ok == false — a rejection is a deliberate verdict the caller must not
  /// retry, not an application error.
  bool rejected = false;
  std::uint32_t aux = 0;    ///< RPC attempt number (request/response)
  std::uint64_t id = 0;     ///< RPC call id / beat sequence
  std::string method;       ///< RPC method name
  std::string payload;      ///< request/response body
  std::string origin;       ///< sending node name
};

}  // namespace aft::net
