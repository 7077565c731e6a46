// Wire protocol of the serve daemon (DESIGN.md §11).
//
// Newline-delimited JSON over a local stream socket. Each request is one
// JSON object with an "op" field; responses are one JSON object per line,
// except `results`, which streams raw result-row lines followed by one
// terminal {"type":"end",...} object. Every non-row response carries
// "ok":true|false; errors carry "error" with a field-path-naming message.
//
// Ops:
//   {"op":"submit","tenant":T,"spec":{...},"job":J?}     -> submitted
//   {"op":"status","job":J}                              -> status
//   {"op":"results","job":J,"from":N?,"wait":B?}         -> rows..., end
//   {"op":"cancel","job":J}                              -> status
//   {"op":"counters"}                                    -> counters
//   {"op":"metrics","format":"json"|"prometheus"?}       -> metrics
//
// Shard ops (DESIGN.md §15) — spoken between a coordinator and stock
// daemons; any tcgrid_serve answers them:
//   {"op":"register"}            -> {"ok":true,"type":"registered",
//                                    "threads":N,"eps":E,"coordinator":B}
//      Handshake: the coordinator validates eps compatibility and sizes the
//      shard's lease-slot pool from "threads".
//   {"op":"register","shard":A}  -> shard_registered (coordinator only):
//      dynamically add the daemon at address A (unix path, "unix:PATH" or
//      "tcp:HOST:PORT") to the coordinator's shard fleet.
//   {"op":"heartbeat"}           -> {"ok":true,"type":"pong"}
//      Liveness probe on the coordinator's per-shard monitor connection; a
//      missed deadline expires every lease held by that shard.
//   {"op":"lease","tenant":T,"units":[u...],"spec":{...}}
//      Execute the listed (scenario, trial) units — api::unit_index ids
//      against the spec — and stream, per completed unit,
//        {"ok":true,"type":"unit","unit":u,"rows":H}
//      followed by exactly H raw result-row lines (row_line bytes, NOT
//      JSON-escaped — identical bytes to what a local worker would commit;
//      H is the spec's heuristic count, and the coordinator treats any
//      other header as broken framing), then one terminal
//      {"ok":true,"type":"lease_done","units":N}. Every lease is
//      self-contained: the spec is required ("spec: required" otherwise)
//      and the shard keeps no per-connection state — resolving a spec
//      takes microseconds against units that run for tens of milliseconds. A unit that fails to execute yields
//      {"ok":false,"type":"unit_failed","unit":u,"error":...} and aborts
//      the lease. The shard does NOT
//      checkpoint lease units — durability lives in the coordinator's
//      merged commit log; purity of rows makes re-execution after any
//      failure byte-identical.
//
// This header holds what both sides share: the identifier grammar, the
// client-side request builders (used by the client CLI and the protocol
// tests) and, re-exported from api/sink.hpp, the deterministic result-row
// serialization api::row_line. Row bytes are a pure function of the row's
// coordinates and outcome — never of job id, tenant, scheduling order or
// daemon lifetime — which is what makes the checkpoint/resume guarantee
// testable: sort the union of streamed rows and it is byte-identical to an
// uninterrupted run's.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "api/sink.hpp"
#include "util/json.hpp"

namespace tcgrid::serve {

/// Tenants and job ids become directory names and wire keys:
/// [A-Za-z0-9._-], 1..64 chars, no leading '.' (no dot-file/traversal
/// surprises on the checkpoint root).
[[nodiscard]] bool valid_identifier(std::string_view s);

/// The result-row serializer (api/sink.hpp): checkpoint rows, the wire
/// and JsonlSink all write these bytes.
using api::row_line;

// --------------------------------------------------- client-side builders ----

[[nodiscard]] std::string submit_request(std::string_view tenant,
                                         const util::json::Value& spec,
                                         std::string_view job = {});
[[nodiscard]] std::string status_request(std::string_view job);
/// `from` indexes the daemon's COMMIT order — identical to the job's
/// rows.jsonl line order, so it is stable across daemon restarts. On a
/// coordinator that is the merged commit order (the order units' rows
/// landed in the merged checkpoint, whichever shard served them): a client
/// that streamed N rows and reconnects with from=N never re-reads or skips
/// a row, coordinator restart included (tests/shard_test.cpp).
[[nodiscard]] std::string results_request(std::string_view job, std::size_t from,
                                          bool wait);
[[nodiscard]] std::string cancel_request(std::string_view job);
[[nodiscard]] std::string counters_request();
/// format: "json" (metric objects under "metrics") or "prometheus" (text
/// exposition as one string under "prometheus" — the protocol is
/// line-based, so the text rides inside the JSON response).
[[nodiscard]] std::string metrics_request(std::string_view format = "json");

// ---------------------------------------------------- shard-side builders ----

/// Handshake (no shard address) when `shard` is empty; otherwise the
/// coordinator-side dynamic registration of the daemon at that address.
[[nodiscard]] std::string register_request(std::string_view shard = {});
[[nodiscard]] std::string heartbeat_request();
/// `spec_json` is the canonical spec dump (api::spec_to_json), required by
/// the shard. Spliced verbatim — the coordinator dumps a job's spec once,
/// not per lease.
[[nodiscard]] std::string lease_request(std::string_view tenant,
                                        const std::vector<std::size_t>& units,
                                        std::string_view spec_json);

}  // namespace tcgrid::serve
