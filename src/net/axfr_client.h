// Blocking AXFR-over-TCP client: the socket-backed variant of the zone
// distribution channel (the simulator's loss-tolerant UDP variant is
// distrib::AxfrClient).
//
// FetchZoneTcp first asks the server for its SOA; if the serial matches
// `have_serial` the fetch returns a null SnapshotPtr (the caller keeps its
// copy — the cheap steady-state poll). Otherwise it issues an AXFR query and
// streams the answer: each length-prefixed frame is read into one reused
// buffer and handed to a distrib::AxfrStreamAssembler, which decodes it,
// checks the rcode and the SOA bracket and moves its records into the zone
// being rebuilt, so no frame outlives its turn. The fetch holds the Zone and
// the snapshot built from it, not the stream. On the signed 2018-04-11 model
// root zone (2.36 MB of wire in 528 frames) its heap peak, in bytes
// requested from a counting operator new, fell from +44.5 MB (every frame
// kept, each decoded twice, then every record decoded again and held
// beside the Zone) to +27.7 MB.
//
// Blocking by design: refresh runs on its own cadence (minutes), not on the
// serving loop. Error codes follow the shared vocabulary: kUnreachable
// (connect), kTimeout (deadline, e.g. a peer that stalls mid-frame),
// kTruncated/kCorrupted (a frame the message decoder refuses, a zero-length
// frame included) and kProtocol (the peer closes mid-frame or before the
// closing SOA, an error rcode, a broken SOA bracket).
#pragma once

#include <cstdint>
#include <string>

#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::net {

struct AxfrFetchOptions {
  std::uint32_t have_serial = 0;  // 0 = always transfer
  int timeout_ms = 5000;          // per-socket-operation deadline
};

// Returns the transferred snapshot, or a null SnapshotPtr when the server's
// serial equals `options.have_serial`.
util::Result<zone::SnapshotPtr> FetchZoneTcp(const std::string& host,
                                             std::uint16_t port,
                                             const AxfrFetchOptions& options);

}  // namespace rootless::net
