//===- api/Serialize.cpp --------------------------------------------------===//

#include "api/Serialize.h"

#include "api/Fields.h"
#include "support/Error.h"
#include "support/Format.h"

#include <cmath>
#include <limits>
#include <span>

using namespace offchip;

namespace {

//===----------------------------------------------------------------------===//
// Typed field readers: each checks presence and kind and produces a
// diagnostic naming the key, so protocol errors point at the offending
// field instead of generically failing the request. \p V is the member
// value, nullptr when the key is absent.
//===----------------------------------------------------------------------===//

bool keyError(std::string *Err, std::string_view Key, const char *What) {
  if (Err)
    *Err = formatString("field '%.*s': %s", static_cast<int>(Key.size()),
                        Key.data(), What);
  return false;
}

bool readValue(const JsonValue *V, std::string_view Key, std::uint64_t *Out,
               std::string *Err) {
  // Digits only: a sign, fraction or exponent would otherwise wrap or
  // truncate into a silently different machine.
  if (!V || !V->isNumber())
    return keyError(Err, Key, "expected an unsigned integer");
  std::uint64_t N = 0;
  for (char C : V->numberToken()) {
    unsigned D = static_cast<unsigned>(C - '0');
    if (D > 9 || N > (std::numeric_limits<std::uint64_t>::max() - D) / 10)
      return keyError(Err, Key, "expected an unsigned integer");
    N = N * 10 + D;
  }
  *Out = N;
  return true;
}

bool readValue(const JsonValue *V, std::string_view Key, unsigned *Out,
               std::string *Err) {
  std::uint64_t V64 = 0;
  if (!readValue(V, Key, &V64, Err))
    return false;
  if (V64 > std::numeric_limits<unsigned>::max())
    return keyError(Err, Key, "value exceeds 32 bits");
  *Out = static_cast<unsigned>(V64);
  return true;
}

bool readValue(const JsonValue *V, std::string_view Key, double *Out,
               std::string *Err) {
  // JSON has no inf or nan, and the writer turns them into 0: reject the
  // overflowing tokens ("1e999") that would parse to one.
  if (!V || !V->isNumber() || !std::isfinite(V->asDouble()))
    return keyError(Err, Key, "expected a finite number");
  *Out = V->asDouble();
  return true;
}

bool readValue(const JsonValue *V, std::string_view Key, bool *Out,
               std::string *Err) {
  if (!V || !V->isBool())
    return keyError(Err, Key, "expected true or false");
  *Out = V->asBool();
  return true;
}

bool readValue(const JsonValue *V, std::string_view Key, std::string *Out,
               std::string *Err) {
  if (!V || !V->isString())
    return keyError(Err, Key, "expected a string");
  *Out = V->asString();
  return true;
}

template <typename T>
bool readValue(const JsonValue *V, std::string_view Key, std::vector<T> *Out,
               std::string *Err) {
  if (!V || !V->isArray())
    return keyError(Err, Key, "expected an array");
  Out->resize(V->size());
  for (std::size_t I = 0; I < V->size(); ++I)
    if (!readValue(&V->at(I), Key, &(*Out)[I], Err))
      return false;
  return true;
}

/// Reads member \p Key of object \p Obj; defined below every readValue.
template <typename T>
bool read(const JsonValue &Obj, std::string_view Key, T *Out,
          std::string *Err);

//===----------------------------------------------------------------------===//
// Enum spellings, indexed by enumerator value
//===----------------------------------------------------------------------===//

std::span<const char *const> spellings(MCPlacementKind) {
  // Placement spellings live with the enum (noc/Mesh.h) so the CLI flags
  // and this wire layer can never drift apart.
  static const char *const Names[] = {
      mcPlacementName(MCPlacementKind::Corners),
      mcPlacementName(MCPlacementKind::EdgeMidpoints),
      mcPlacementName(MCPlacementKind::TopBottomSpread),
      mcPlacementName(MCPlacementKind::Explicit)};
  return Names;
}

std::span<const char *const> spellings(InterleaveGranularity) {
  static const char *const Names[] = {"line", "page"};
  return Names;
}

std::span<const char *const> spellings(PageAllocPolicy) {
  static const char *const Names[] = {"round_robin", "first_touch",
                                      "compiler_guided"};
  return Names;
}

std::span<const char *const> spellings(MachineConfig::CoherenceProtocol) {
  static const char *const Names[] = {"none", "msi", "mesi"};
  return Names;
}

template <typename E>
  requires std::is_enum_v<E>
bool readValue(const JsonValue *V, std::string_view Key, E *Out,
               std::string *Err) {
  std::string S;
  if (!readValue(V, Key, &S, Err))
    return false;
  std::span<const char *const> Names = spellings(*Out);
  std::string Expected = "expected one of:";
  for (std::size_t I = 0; I < Names.size(); ++I) {
    if (S == Names[I]) {
      *Out = static_cast<E>(I);
      return true;
    }
    Expected += (I == 0 ? " " : ", ") + std::string(Names[I]);
  }
  return keyError(Err, Key, Expected.c_str());
}

//===----------------------------------------------------------------------===//
// Accumulators and histograms
//===----------------------------------------------------------------------===//

bool readValue(const JsonValue *V, std::string_view Key, Accumulator *A,
               std::string *Err) {
  if (!V || !V->isObject())
    return keyError(Err, Key, "expected an accumulator object");
  std::uint64_t Count = 0;
  double Sum = 0, Min = 0, Max = 0;
  if (!read(*V, "count", &Count, Err) || !read(*V, "sum", &Sum, Err) ||
      !read(*V, "min", &Min, Err) || !read(*V, "max", &Max, Err))
    return false;
  *A = Accumulator::fromMoments(Count, Sum, Min, Max);
  return true;
}

bool readValue(const JsonValue *V, std::string_view Key, IntHistogram *H,
               std::string *Err) {
  if (!V || !V->isObject())
    return keyError(Err, Key, "expected a histogram object");
  unsigned Cap = 0;
  std::vector<std::uint64_t> Buckets;
  if (!read(*V, "cap", &Cap, Err) || !read(*V, "buckets", &Buckets, Err))
    return false;
  *H = IntHistogram::fromBuckets(Cap, std::move(Buckets));
  return true;
}

template <typename T>
bool read(const JsonValue &Obj, std::string_view Key, T *Out,
          std::string *Err) {
  return readValue(Obj.find(Key), Key, Out, Err);
}

/// Like read(), but an absent member leaves \p Out untouched.
template <typename T>
bool readOptional(const JsonValue &Obj, std::string_view Key, T *Out,
                  std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  return !V || readValue(V, Key, Out, Err);
}

//===----------------------------------------------------------------------===//
// Field writers: append each value straight into the JsonWriter's string.
// The scalar overloads forward to JsonWriter::value(); they exist so the
// field walkers can call writeValue() on every field type alike.
//===----------------------------------------------------------------------===//

void writeValue(JsonWriter &W, std::uint64_t V) { W.value(V); }
void writeValue(JsonWriter &W, unsigned V) { W.value(V); }
void writeValue(JsonWriter &W, double V) { W.value(V); }
void writeValue(JsonWriter &W, bool V) { W.value(V); }

template <typename E>
  requires std::is_enum_v<E>
void writeValue(JsonWriter &W, E V) {
  W.value(spellings(V)[static_cast<std::size_t>(V)]);
}

template <typename T>
void writeValue(JsonWriter &W, const std::vector<T> &V) {
  W.beginArray();
  for (const T &X : V)
    writeValue(W, X);
  W.endArray();
}

void writeValue(JsonWriter &W, const Accumulator &A) {
  W.beginObject();
  W.member("count", A.count());
  W.member("sum", A.sum());
  W.member("min", A.min());
  W.member("max", A.max());
  W.endObject();
}

void writeValue(JsonWriter &W, const IntHistogram &H) {
  W.beginObject();
  W.member("cap", H.cap());
  W.key("buckets");
  W.beginArray();
  if (H.total() != 0)
    for (unsigned I = 0; I <= H.maxNonEmptyBucket(); ++I)
      W.value(H.countAt(I));
  W.endArray();
  W.endObject();
}

const char *statusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::Error:
    return "error";
  case ResponseStatus::Overloaded:
    return "overloaded";
  }
  return "error";
}

} // namespace

//===----------------------------------------------------------------------===//
// Streaming writers of the wire types
//===----------------------------------------------------------------------===//

namespace {

void writeConfig(JsonWriter &W, const MachineConfig &C) {
  W.beginObject();
  visitConfigFields(C, [&](const char *Key, const auto &V,
                           FieldOpts Opts = {}) {
    if (Opts.Written) {
      W.key(Key);
      writeValue(W, V);
    }
  });
  W.endObject();
}

void writeResult(JsonWriter &W, const SimResult &R) {
  W.beginObject();
  visitResultFields(R, [&](const char *Key, const auto &V) {
    W.key(Key);
    writeValue(W, V);
  });
  W.endObject();
}

void writePlan(JsonWriter &W, const PlanSummary &P) {
  W.beginObject();
  W.member("program", P.ProgramName);
  W.member("clusters", P.NumClusters);
  W.member("cores_per_cluster_x", P.CoresPerClusterX);
  W.member("cores_per_cluster_y", P.CoresPerClusterY);
  W.member("mcs_per_cluster", P.MCsPerCluster);
  W.key("arrays");
  W.beginArray();
  for (const PlanArrayRow &Row : P.Arrays) {
    W.beginObject();
    W.member("name", Row.Name);
    W.member("optimized", Row.Optimized);
    W.member("u", Row.U);
    W.member("note", Row.Note);
    W.endObject();
  }
  W.endArray();
  W.member("arrays_optimized_fraction", P.ArraysOptimizedFraction);
  W.member("refs_satisfied_fraction", P.RefsSatisfiedFraction);
  W.member("source", P.TransformedSource);
  W.endObject();
}

void writeRequest(JsonWriter &W, const SimRequest &R) {
  W.beginObject();
  if (!R.Id.empty())
    W.member("id", R.Id);
  W.member("method",
           R.Kind == RequestKind::Optimize ? "optimize" : "simulate");
  if (R.Workload.isApp()) {
    W.member("app", R.Workload.App);
    W.member("scale", R.Workload.SizeScale);
  } else {
    W.member("program", R.Workload.ProgramText);
  }
  if (R.MCsPerCluster != 1)
    W.member("mcs_per_cluster", R.MCsPerCluster);
  W.key("config");
  writeConfig(W, R.Config);
  W.endObject();
}

void writeResponse(JsonWriter &W, const SimResponse &R) {
  W.beginObject();
  if (!R.Id.empty())
    W.member("id", R.Id);
  W.member("status", statusName(R.Status));
  switch (R.Status) {
  case ResponseStatus::Overloaded:
    break;
  case ResponseStatus::Error:
    if (!R.ErrorText.empty())
      W.member("error", R.ErrorText);
    if (!R.Diagnostics.empty()) {
      W.key("diagnostics");
      W.beginArray();
      for (const ConfigDiagnostic &D : R.Diagnostics) {
        W.beginObject();
        W.member("field", D.Field);
        W.member("value", D.Value);
        W.member("constraint", D.Constraint);
        W.member("fix", D.Fix);
        W.endObject();
      }
      W.endArray();
    }
    break;
  case ResponseStatus::Ok:
    W.member("cache", R.CacheHit ? "hit" : "miss");
    // Written only when set so pre-single-flight response bytes are
    // unchanged; absent means false on the read side.
    if (R.Singleflight)
      W.member("singleflight", true);
    if (!R.Key.empty())
      W.member("key", R.Key);
    W.member("server_seconds", R.ServerSeconds);
    W.key("plan");
    writePlan(W, R.Plan);
    if (R.Original) {
      W.key("original");
      writeResult(W, *R.Original);
    }
    if (R.Optimized) {
      W.key("optimized");
      writeResult(W, *R.Optimized);
    }
    break;
  }
  W.endObject();
}

/// Streams \p V through \p Write into one string of \p Reserve bytes.
template <typename T>
std::string render(const T &V, void (*Write)(JsonWriter &, const T &),
                   std::size_t Reserve) {
  std::string Out;
  Out.reserve(Reserve);
  JsonWriter W(Out);
  Write(W, V);
  return Out;
}

/// The DOM of a streamed document: toJson() is a parse of the wire text,
/// so the streaming writers are the only per-field JSON code.
template <typename T>
JsonValue reparse(const T &V, void (*Write)(JsonWriter &, const T &)) {
  std::string Err;
  std::optional<JsonValue> Doc = parseJson(render(V, Write, 1024), &Err);
  if (!Doc)
    reportFatalError(("streamed JSON does not parse: " + Err).c_str());
  return std::move(*Doc);
}

} // namespace

//===----------------------------------------------------------------------===//
// MachineConfig and SimResult: walkers over the api/Fields.h lists
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const MachineConfig &C) {
  return reparse(C, writeConfig);
}

bool offchip::machineConfigFromJson(const JsonValue &V, MachineConfig *C,
                                    std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "config", "expected an object");
  bool Ok = true;
  std::size_t Seen = 0;
  visitConfigFields(*C, [&](const char *Key, auto &Field, FieldOpts = {}) {
    const JsonValue *M = Ok ? V.find(Key) : nullptr;
    if (M) {
      ++Seen;
      Ok = readValue(M, Key, &Field, Err);
    }
  });
  if (!Ok || Seen == V.members().size())
    return Ok;
  // Object keys are unique, so some member is not in the list.
  for (const auto &M : V.members()) {
    const std::string &Key = M.first;
    bool Known = false;
    visitConfigFields(*C, [&](const char *Name, const auto &, FieldOpts = {}) {
      Known = Known || Key == Name;
    });
    if (!Known)
      return keyError(Err, Key, "unknown machine config key");
  }
  return true;
}

JsonValue offchip::toJson(const SimResult &R) {
  return reparse(R, writeResult);
}

bool offchip::simResultFromJson(const JsonValue &V, SimResult *R,
                                std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "result", "expected an object");
  *R = SimResult();
  bool Ok = true;
  visitResultFields(*R, [&](const char *Key, auto &Field) {
    Ok = Ok && read(V, Key, &Field, Err);
  });
  return Ok;
}

//===----------------------------------------------------------------------===//
// PlanSummary
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const PlanSummary &P) {
  return reparse(P, writePlan);
}

bool offchip::planSummaryFromJson(const JsonValue &V, PlanSummary *P,
                                  std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "plan", "expected an object");
  *P = PlanSummary();
  if (!read(V, "program", &P->ProgramName, Err) ||
      !read(V, "clusters", &P->NumClusters, Err) ||
      !read(V, "cores_per_cluster_x", &P->CoresPerClusterX, Err) ||
      !read(V, "cores_per_cluster_y", &P->CoresPerClusterY, Err) ||
      !read(V, "mcs_per_cluster", &P->MCsPerCluster, Err) ||
      !read(V, "arrays_optimized_fraction", &P->ArraysOptimizedFraction,
            Err) ||
      !read(V, "refs_satisfied_fraction", &P->RefsSatisfiedFraction, Err) ||
      !read(V, "source", &P->TransformedSource, Err))
    return false;
  const JsonValue *Arrays = V.find("arrays");
  if (!Arrays || !Arrays->isArray())
    return keyError(Err, "arrays", "expected an array");
  for (std::size_t I = 0; I < Arrays->size(); ++I) {
    const JsonValue &A = Arrays->at(I);
    if (!A.isObject())
      return keyError(Err, "arrays", "expected an array of objects");
    PlanArrayRow Row;
    if (!read(A, "name", &Row.Name, Err) ||
        !read(A, "optimized", &Row.Optimized, Err) ||
        !read(A, "u", &Row.U, Err) || !read(A, "note", &Row.Note, Err))
      return false;
    P->Arrays.push_back(std::move(Row));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SimRequest
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const SimRequest &R) {
  return reparse(R, writeRequest);
}

bool offchip::requestFromJson(const JsonValue &V, SimRequest *R,
                              std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "request", "expected an object");
  *R = SimRequest();
  bool SawApp = false, SawProgram = false;
  for (const auto &M : V.members()) {
    const std::string &Key = M.first;
    bool Ok = true;
    if (Key == "id")
      Ok = readValue(&M.second, Key, &R->Id, Err);
    else if (Key == "method") {
      std::string S;
      Ok = readValue(&M.second, Key, &S, Err);
      if (Ok) {
        if (S == "optimize")
          R->Kind = RequestKind::Optimize;
        else if (S == "simulate")
          R->Kind = RequestKind::Simulate;
        else
          return keyError(Err, Key, "expected optimize or simulate");
      }
    } else if (Key == "app") {
      Ok = readValue(&M.second, Key, &R->Workload.App, Err);
      SawApp = true;
    } else if (Key == "scale") {
      Ok = readValue(&M.second, Key, &R->Workload.SizeScale, Err);
      if (Ok && !validSizeScale(R->Workload.SizeScale))
        return keyError(Err, Key,
                        formatString("must be > 0 and at most %g",
                                     MaxSizeScale)
                            .c_str());
    } else if (Key == "program") {
      Ok = readValue(&M.second, Key, &R->Workload.ProgramText, Err);
      SawProgram = true;
    } else if (Key == "mcs_per_cluster")
      Ok = readValue(&M.second, Key, &R->MCsPerCluster, Err);
    else if (Key == "config")
      Ok = machineConfigFromJson(M.second, &R->Config, Err);
    else
      return keyError(Err, Key, "unknown request key");
    if (!Ok)
      return false;
  }
  if (!V.find("method"))
    return keyError(Err, "method", "required");
  if (SawApp == SawProgram)
    return keyError(Err, "app",
                    "exactly one of 'app' or 'program' is required");
  if (SawApp && R->Workload.App.empty())
    return keyError(Err, "app", "must not be empty");
  return true;
}

//===----------------------------------------------------------------------===//
// SimResponse
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const SimResponse &R) {
  return reparse(R, writeResponse);
}

bool offchip::responseFromJson(const JsonValue &V, SimResponse *R,
                               std::string *Err) {
  if (!V.isObject())
    return keyError(Err, "response", "expected an object");
  *R = SimResponse();
  std::string Status;
  if (!readOptional(V, "id", &R->Id, Err) ||
      !read(V, "status", &Status, Err))
    return false;
  if (Status == "overloaded") {
    R->Status = ResponseStatus::Overloaded;
    return true;
  }
  if (Status == "error") {
    R->Status = ResponseStatus::Error;
    if (!readOptional(V, "error", &R->ErrorText, Err))
      return false;
    if (const JsonValue *Diags = V.find("diagnostics")) {
      if (!Diags->isArray())
        return keyError(Err, "diagnostics", "expected an array");
      for (std::size_t I = 0; I < Diags->size(); ++I) {
        const JsonValue &D = Diags->at(I);
        ConfigDiagnostic CD;
        if (!D.isObject() || !read(D, "field", &CD.Field, Err) ||
            !read(D, "value", &CD.Value, Err) ||
            !read(D, "constraint", &CD.Constraint, Err) ||
            !read(D, "fix", &CD.Fix, Err))
          return false;
        R->Diagnostics.push_back(std::move(CD));
      }
    }
    return true;
  }
  if (Status != "ok")
    return keyError(Err, "status", "expected ok, error or overloaded");
  R->Status = ResponseStatus::Ok;
  std::string Cache;
  if (!read(V, "cache", &Cache, Err))
    return false;
  if (Cache != "hit" && Cache != "miss")
    return keyError(Err, "cache", "expected hit or miss");
  R->CacheHit = Cache == "hit";
  if (!readOptional(V, "singleflight", &R->Singleflight, Err) ||
      !readOptional(V, "key", &R->Key, Err) ||
      !read(V, "server_seconds", &R->ServerSeconds, Err))
    return false;
  const JsonValue *Plan = V.find("plan");
  if (!Plan || !planSummaryFromJson(*Plan, &R->Plan, Err))
    return Plan ? false : keyError(Err, "plan", "required for ok responses");
  if (const JsonValue *Orig = V.find("original")) {
    SimResult S;
    if (!simResultFromJson(*Orig, &S, Err))
      return false;
    R->Original = std::move(S);
  }
  if (const JsonValue *Opt = V.find("optimized")) {
    SimResult S;
    if (!simResultFromJson(*Opt, &S, Err))
      return false;
    R->Optimized = std::move(S);
  }
  return true;
}

std::string offchip::writeRequestLine(const SimRequest &R) {
  std::string Line = render(R, writeRequest,
                            2048 + R.Workload.ProgramText.size());
  Line += '\n';
  return Line;
}

std::string offchip::writeResponseLine(const SimResponse &R) {
  // A result object is about 5 KB; the plan is mostly its source text.
  std::size_t Reserve = 1024 + R.Plan.TransformedSource.size() +
                        (R.Original ? 6144 : 0) + (R.Optimized ? 6144 : 0);
  std::string Line = render(R, writeResponse, Reserve);
  Line += '\n';
  return Line;
}
