//===- api/Serialize.h - JSON wire format of the service API ----*- C++ -*-===//
///
/// \file
/// JSON encoding of the request/response vocabulary — the offchip-serve
/// line protocol. One request or response per line, a JSON object each:
///
///   {"id":"r1","method":"simulate","app":"swim","scale":0.5,
///    "config":{"mesh_x":8,"num_mcs":4,...},"mcs_per_cluster":1}
///   {"id":"r2","method":"optimize","program":"program p\n..."}
///
///   {"id":"r1","status":"ok","cache":"miss","key":"<32 hex>",
///    "server_seconds":1.25,"plan":{...},"original":{...},"optimized":{...}}
///   {"id":"r1","status":"error","error":"...","diagnostics":[...]}
///   {"id":"r1","status":"overloaded"}
///
/// MachineConfig and SimResult are encoded by walking their field lists in
/// api/Fields.h, one wire key per field. Config objects are partial: absent
/// fields keep the caller's base values (MachineConfig scaledDefault() for
/// requests), and unknown keys are rejected (the same philosophy as the
/// CLI's strict option parsing — a typo must not silently simulate a
/// different machine). Result objects are complete: every key is required.
/// They cover every field equalResults() compares, with exact integer and
/// %.17g double tokens, so a result survives the wire bit-identically.
/// Integer fields accept digits only; a sign, fraction or exponent is an
/// error naming the key. A request's "scale" must lie in (0, 64]
/// (validSizeScale()).
///
/// Each type has one writer, which streams the JSON text straight into
/// one string through JsonWriter; writeRequestLine() and
/// writeResponseLine() are those writers. toJson() is the parse of that
/// same text, for callers that want a DOM, so it writes back to the
/// identical bytes.
///
//===----------------------------------------------------------------------===//

#ifndef OFFCHIP_API_SERIALIZE_H
#define OFFCHIP_API_SERIALIZE_H

#include "api/Json.h"
#include "api/Request.h"

namespace offchip {

//===----------------------------------------------------------------------===//
// Machine config
//===----------------------------------------------------------------------===//

/// Full encoding: every key of the field list, current values (mc_nodes
/// only under an explicit placement).
JsonValue toJson(const MachineConfig &C);

/// Applies a (partial) config object onto \p C. Unknown keys, wrong types
/// and unknown enum spellings fail with a message naming the key.
bool machineConfigFromJson(const JsonValue &V, MachineConfig *C,
                           std::string *Err);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

JsonValue toJson(const SimResult &R);
bool simResultFromJson(const JsonValue &V, SimResult *R, std::string *Err);

JsonValue toJson(const PlanSummary &P);
bool planSummaryFromJson(const JsonValue &V, PlanSummary *P,
                         std::string *Err);

//===----------------------------------------------------------------------===//
// Requests and responses
//===----------------------------------------------------------------------===//

JsonValue toJson(const SimRequest &R);
bool requestFromJson(const JsonValue &V, SimRequest *R, std::string *Err);

JsonValue toJson(const SimResponse &R);
bool responseFromJson(const JsonValue &V, SimResponse *R, std::string *Err);

/// Convenience: one '\n'-terminated protocol line.
std::string writeRequestLine(const SimRequest &R);
std::string writeResponseLine(const SimResponse &R);

} // namespace offchip

#endif // OFFCHIP_API_SERIALIZE_H
