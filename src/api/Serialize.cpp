//===- api/Serialize.cpp --------------------------------------------------===//

#include "api/Serialize.h"

#include "api/Fields.h"
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
// Field writers
//===----------------------------------------------------------------------===//

JsonValue wireValue(std::uint64_t V) { return JsonValue::number(V); }
JsonValue wireValue(unsigned V) { return JsonValue::number(V); }
JsonValue wireValue(double V) { return JsonValue::number(V); }
JsonValue wireValue(bool V) { return JsonValue::boolean(V); }

template <typename E>
  requires std::is_enum_v<E>
JsonValue wireValue(E V) {
  return JsonValue::string(spellings(V)[static_cast<std::size_t>(V)]);
}

template <typename T> JsonValue wireValue(const std::vector<T> &V) {
  JsonValue A = JsonValue::array();
  for (const T &X : V)
    A.push(wireValue(X));
  return A;
}

JsonValue wireValue(const Accumulator &A) {
  JsonValue O = JsonValue::object();
  O.set("count", JsonValue::number(A.count()));
  O.set("sum", JsonValue::number(A.sum()));
  O.set("min", JsonValue::number(A.min()));
  O.set("max", JsonValue::number(A.max()));
  return O;
}

JsonValue wireValue(const IntHistogram &H) {
  JsonValue O = JsonValue::object();
  O.set("cap", JsonValue::number(H.cap()));
  JsonValue Buckets = JsonValue::array();
  if (H.total() != 0)
    for (unsigned I = 0; I <= H.maxNonEmptyBucket(); ++I)
      Buckets.push(JsonValue::number(H.countAt(I)));
  O.set("buckets", std::move(Buckets));
  return O;
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
// MachineConfig and SimResult: walkers over the api/Fields.h lists
//===----------------------------------------------------------------------===//

JsonValue offchip::toJson(const MachineConfig &C) {
  JsonValue O = JsonValue::object();
  visitConfigFields(C, [&](const char *Key, const auto &V,
                           FieldOpts Opts = {}) {
    if (Opts.Written)
      O.set(Key, wireValue(V));
  });
  return O;
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
  JsonValue O = JsonValue::object();
  visitResultFields(R, [&](const char *Key, const auto &V) {
    O.set(Key, wireValue(V));
  });
  return O;
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
  JsonValue O = JsonValue::object();
  O.set("program", JsonValue::string(P.ProgramName));
  O.set("clusters", JsonValue::number(P.NumClusters));
  O.set("cores_per_cluster_x", JsonValue::number(P.CoresPerClusterX));
  O.set("cores_per_cluster_y", JsonValue::number(P.CoresPerClusterY));
  O.set("mcs_per_cluster", JsonValue::number(P.MCsPerCluster));
  JsonValue Arrays = JsonValue::array();
  for (const PlanArrayRow &Row : P.Arrays) {
    JsonValue A = JsonValue::object();
    A.set("name", JsonValue::string(Row.Name));
    A.set("optimized", JsonValue::boolean(Row.Optimized));
    A.set("u", JsonValue::string(Row.U));
    A.set("note", JsonValue::string(Row.Note));
    Arrays.push(std::move(A));
  }
  O.set("arrays", std::move(Arrays));
  O.set("arrays_optimized_fraction",
        JsonValue::number(P.ArraysOptimizedFraction));
  O.set("refs_satisfied_fraction",
        JsonValue::number(P.RefsSatisfiedFraction));
  O.set("source", JsonValue::string(P.TransformedSource));
  return O;
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
  JsonValue O = JsonValue::object();
  if (!R.Id.empty())
    O.set("id", JsonValue::string(R.Id));
  O.set("method", JsonValue::string(R.Kind == RequestKind::Optimize
                                        ? "optimize"
                                        : "simulate"));
  if (R.Workload.isApp()) {
    O.set("app", JsonValue::string(R.Workload.App));
    O.set("scale", JsonValue::number(R.Workload.SizeScale));
  } else {
    O.set("program", JsonValue::string(R.Workload.ProgramText));
  }
  if (R.MCsPerCluster != 1)
    O.set("mcs_per_cluster", JsonValue::number(R.MCsPerCluster));
  O.set("config", toJson(R.Config));
  return O;
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
    } else if (Key == "scale")
      Ok = readValue(&M.second, Key, &R->Workload.SizeScale, Err);
    else if (Key == "program") {
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
  JsonValue O = JsonValue::object();
  if (!R.Id.empty())
    O.set("id", JsonValue::string(R.Id));
  O.set("status", JsonValue::string(statusName(R.Status)));
  switch (R.Status) {
  case ResponseStatus::Overloaded:
    break;
  case ResponseStatus::Error: {
    if (!R.ErrorText.empty())
      O.set("error", JsonValue::string(R.ErrorText));
    if (!R.Diagnostics.empty()) {
      JsonValue Diags = JsonValue::array();
      for (const ConfigDiagnostic &D : R.Diagnostics) {
        JsonValue J = JsonValue::object();
        J.set("field", JsonValue::string(D.Field));
        J.set("value", JsonValue::string(D.Value));
        J.set("constraint", JsonValue::string(D.Constraint));
        J.set("fix", JsonValue::string(D.Fix));
        Diags.push(std::move(J));
      }
      O.set("diagnostics", std::move(Diags));
    }
    break;
  }
  case ResponseStatus::Ok:
    O.set("cache", JsonValue::string(R.CacheHit ? "hit" : "miss"));
    // Written only when set so pre-single-flight response bytes are
    // unchanged; absent means false on the read side.
    if (R.Singleflight)
      O.set("singleflight", JsonValue::boolean(true));
    if (!R.Key.empty())
      O.set("key", JsonValue::string(R.Key));
    O.set("server_seconds", JsonValue::number(R.ServerSeconds));
    O.set("plan", toJson(R.Plan));
    if (R.Original)
      O.set("original", toJson(*R.Original));
    if (R.Optimized)
      O.set("optimized", toJson(*R.Optimized));
    break;
  }
  return O;
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
  return toJson(R).write() + "\n";
}

std::string offchip::writeResponseLine(const SimResponse &R) {
  return toJson(R).write() + "\n";
}
