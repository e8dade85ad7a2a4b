//===- perfbench/layer_trace.cpp - Per-layer traced pipeline --------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's traced run. For each named Table-1 coder it calls every
/// layer's public entry point in pipeline order, the way
/// InversionEngine::runOnSession does on a fresh context:
///
///   parseGenic, lowerProgram, checkDeterminism,
///   checkTransitionInjectivity, buildOutputAutomaton, checkAmbiguity
///     (the hull round of checkInjectivity, which decides every Table-1
///     coder), Inverter::invert, CompiledSeft::compile, StreamDecoder,
///
/// and times each call from outside with its own span. Work that happens
/// inside those calls (per-rule inversion, CEGIS) is recorded by the
/// program's own spans; run.py folds the trace this harness writes into
/// self time. A seeded payload, encoded by the reference coder, is decoded
/// through the compiled inverse and by the reference inverse.
///
///   layer_trace --coders "A;B" --jobs N --seed N --payload-kb K
///               [--no-injectivity] --trace-out FILE
///
/// Prints one JSON object per coder, one per line.
///
//===----------------------------------------------------------------------===//

#include "automata/Ambiguity.h"
#include "coders/Corpus.h"
#include "genic/Lower.h"
#include "genic/Parser.h"
#include "genic/ProgramPrinter.h"
#include "runtime/StreamDecoder.h"
#include "solver/SolverContext.h"
#include "solver/SolverSessionPool.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "sygus/Inverter.h"
#include "transducer/Determinism.h"
#include "transducer/Injectivity.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

using namespace genic;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_utime.tv_sec + RU.ru_stime.tv_sec +
         (RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) / 1e6;
}

std::string withoutInjectivityOp(std::string Source) {
  size_t Pos = Source.find("isInjective");
  if (Pos == std::string::npos)
    return Source;
  size_t End = Source.find('\n', Pos);
  Source.erase(Pos, End == std::string::npos ? End : End - Pos + 1);
  return Source;
}

std::vector<uint8_t> frame(const Symbols &S, unsigned Bits) {
  std::vector<uint8_t> Out;
  Out.reserve(S.size() * (Bits / 8));
  for (uint64_t V : S)
    for (unsigned I = 0; I != Bits / 8; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  return Out;
}

Symbols unframe(const std::vector<uint8_t> &B, unsigned Bits) {
  unsigned Bps = Bits / 8;
  Symbols Out(B.size() / Bps);
  for (size_t I = 0; I != Out.size(); ++I) {
    uint64_t V = 0;
    for (unsigned J = 0; J != Bps; ++J)
      V |= uint64_t(B[I * Bps + J]) << (8 * J);
    Out[I] = V;
  }
  return Out;
}

/// Output of one coder's traced pipeline, printed as a flat JSON object.
class Row {
public:
  void num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    Fields.emplace_back(Key, Buf);
  }
  void flag(const std::string &Key, bool V) {
    Fields.emplace_back(Key, V ? "true" : "false");
  }
  void str(const std::string &Key, const std::string &V) {
    std::string Esc;
    for (char C : V)
      if (C == '"' || C == '\\')
        Esc += std::string("\\") + C;
      else if (C == '\n')
        Esc += "\\n";
      else if (static_cast<unsigned char>(C) >= 0x20)
        Esc += C;
    Fields.emplace_back(Key, "\"" + Esc + "\"");
  }
  void print() const {
    std::printf("{");
    for (size_t I = 0; I != Fields.size(); ++I)
      std::printf("%s\"%s\": %s", I ? ", " : "", Fields[I].first.c_str(),
                  Fields[I].second.c_str());
    std::printf("}\n");
    std::fflush(stdout);
  }

private:
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Times one layer call: a trace span for the fold in traced.py plus a
/// stopwatch added to \p Seconds and process CPU time added to \p Cpu.
template <typename F>
auto timed(const char *Span, double &Seconds, double *Cpu, F Body) {
  double C0 = cpuSeconds();
  double T0 = now();
  auto Result = [&] {
    TraceSpan S(Span, "perfbench");
    return Body();
  }();
  Seconds += now() - T0;
  if (Cpu)
    *Cpu += cpuSeconds() - C0;
  return Result;
}

/// As above, recording the call's seconds in the row under \p Key.
template <typename F>
auto timed(const char *Span, Row &R, const char *Key, double *Cpu, F Body) {
  double Seconds = 0;
  auto Result = timed(Span, Seconds, Cpu, Body);
  R.num(Key, Seconds);
  return Result;
}

void addSolverStats(const Solver::Stats &S, uint64_t &Hits,
                    uint64_t &Misses, uint64_t &Retries) {
  Hits += S.CacheHits;
  Misses += S.CacheMisses;
  Retries += S.Retries;
}

bool runCoder(const CoderSpec &Spec, unsigned Jobs, bool Injectivity,
              uint64_t Seed, size_t PayloadKb) {
  Row R;
  R.str("coder", Spec.name());
  R.num("jobs", Jobs);
  auto Fail = [&](const std::string &Why) {
    R.flag("ok", false);
    R.str("error", Why);
    R.print();
    return false;
  };

  std::string Source =
      Injectivity ? Spec.Source : withoutInjectivityOp(Spec.Source);
  InverterOptions Options;
  Options.Jobs = Jobs;

  SolverContext Ctx;
  TermFactory &Factory = Ctx.factory();
  Solver &Slv = Ctx.solver();
  MetricsRegistry Registry;
  SolverControl Ctl;
  Ctl.Metrics = &Registry;
  Ctl.Kind = SolverSessionKind::Shared;
  Ctl.Incremental = Options.SolverIncremental;
  Slv.setControl(Ctl);

  double PhaseCpu = 0, PhaseWall = 0;
  Result<AstProgram> Ast = timed("perfbench.parse", R, "parse_s", nullptr,
                                 [&] { return parseGenic(Source); });
  if (!Ast)
    return Fail(Ast.status().message());
  Result<LoweredProgram> P =
      timed("perfbench.lower", R, "lower_s", nullptr,
            [&] { return lowerProgram(Factory, *Ast); });
  if (!P)
    return Fail(P.status().message());

  SolverSessionPool Sessions(Factory, Slv);
  double W0 = now();
  DeterminismOptions DetOpts;
  DetOpts.Jobs = Jobs;
  DetOpts.Sessions = &Sessions;
  auto Det = timed("perfbench.determinism", R, "det_s", &PhaseCpu, [&] {
    return checkDeterminism(P->Machine, Slv, DetOpts);
  });
  if (!Det)
    return Fail(Det.status().message());
  R.flag("deterministic", !Det->has_value());

  bool Injective = false;
  if (Injectivity) {
    GuardOverlapCache Overlaps;
    InjectivityOptions InjOpts;
    InjOpts.Jobs = Jobs;
    InjOpts.Sessions = &Sessions;
    InjOpts.Overlaps = &Overlaps;
    auto TI = timed("perfbench.ti", R, "ti_s", &PhaseCpu, [&] {
      return checkTransitionInjectivity(P->Machine, Slv, InjOpts);
    });
    if (!TI)
      return Fail(TI.status().message());
    if (!TI->has_value()) {
      // checkInjectivity's CEGAR loop: the hull round first; a hull witness
      // on a Table-1 coder is spurious (its validation is internal to
      // checkInjectivity), so the exact round decides.
      double ProjS = 0, AmbS = 0;
      for (bool Hull : {true, false}) {
        auto AO = timed("perfbench.projection", ProjS, &PhaseCpu, [&] {
          return buildOutputAutomaton(P->Machine, Slv, Hull, InjOpts);
        });
        if (!AO)
          return Fail(AO.status().message());
        AmbiguityOptions AmbOpts;
        AmbOpts.Jobs = Jobs;
        AmbOpts.Sessions = &Sessions;
        AmbOpts.Overlaps = &Overlaps;
        AmbOpts.Hull = Hull;
        auto Amb = timed("perfbench.ambiguity", AmbS, &PhaseCpu,
                         [&] { return checkAmbiguity(*AO, Slv, AmbOpts); });
        if (!Amb)
          return Fail(Amb.status().message());
        Injective = !Amb->has_value();
        if (Injective)
          break;
      }
      R.num("projection_s", ProjS);
      R.num("ambiguity_s", AmbS);
    }
  }
  R.flag("injective", Injective);

  Inverter Inv(Slv, Options);
  auto Out = timed("perfbench.inversion", R, "inv_s", &PhaseCpu, [&] {
    Result<InversionOutcome> O = Inv.invert(P->Machine, P->AuxFuncs);
    if (O) {
      PrintOptions PO;
      for (const std::string &Name : P->StateNames)
        PO.StateNames.push_back(Name + "_inv");
      (void)printGenicProgram(O->Inverse, Inv.synthesizedAux(), PO);
    }
    return O;
  });
  PhaseWall = now() - W0;
  if (!Out)
    return Fail(Out.status().message());
  R.flag("inverted", Out->complete());
  R.num("phase_cpu_s", PhaseCpu);
  R.num("phase_wall_s", PhaseWall);

  // Solver and evaluator accounting, as InversionEngine records it.
  std::map<std::string, std::pair<uint64_t, uint64_t>> ByPhase;
  for (const auto &[Name, H] : Registry.snapshot().Histograms) {
    const std::string Prefix = "solver.query.us.";
    if (Name.rfind(Prefix, 0) != 0)
      continue;
    std::string Rest = Name.substr(Prefix.size());
    size_t Dot = Rest.rfind('.');
    if (Dot == std::string::npos || Rest.substr(Dot + 1) == "incremental")
      continue;
    auto &Slot = ByPhase[Rest.substr(0, Dot)];
    Slot.first += H.Count;
    Slot.second += H.SumUs;
  }
  for (const auto &[Phase, CountUs] : ByPhase) {
    R.num("queries." + Phase, double(CountUs.first));
    R.num("z3_us." + Phase, double(CountUs.second));
  }
  uint64_t SatHits = 0, SatMisses = 0, Retries = 0;
  addSolverStats(Slv.stats(), SatHits, SatMisses, Retries);
  addSolverStats(Sessions.solverStats(), SatHits, SatMisses, Retries);
  addSolverStats(Inv.workerStats().Smt, SatHits, SatMisses, Retries);
  R.num("sat_hits", double(SatHits));
  R.num("sat_misses", double(SatMisses));
  R.num("retries", double(Retries));
  const CompiledEvalCache::Stats &ES = Inv.engine().evalCache().stats();
  const CompiledEvalCache::Stats &EW = Inv.workerStats().Eval;
  R.num("evals", double(ES.Evals + EW.Evals));
  R.num("eval_lookups", double(ES.Lookups + EW.Lookups));
  R.num("eval_hits", double(ES.hits() + EW.hits()));
  const EnumeratorBankStore::Stats &BS = Inv.engine().bankStore().stats();
  R.num("bank_hits", double(BS.ReuseHits + Inv.workerStats().BankReuseHits));
  R.num("bank_misses",
        double(BS.ReuseMisses + Inv.workerStats().BankReuseMisses));
  unsigned Iterations = 0;
  for (const SygusEngine::CallRecord &C : Inv.engine().calls())
    Iterations += C.CegisIterations;
  R.num("cegis_iterations", Iterations);
  size_t RulesInverted = 0;
  for (const RuleInversionRecord &Rule : Out->Records)
    RulesInverted += Rule.Outcome == RuleOutcome::Inverted;
  R.num("rules", double(Out->Records.size()));
  R.num("rules_inverted", double(RulesInverted));
  if (!Out->complete())
    return Fail("inversion incomplete");

  // Runtime: compile the inverse and stream-decode a reference payload.
  auto Compiled = timed("perfbench.compile", R, "compile_s", nullptr,
                        [&] { return CompiledSeft::compile(Out->Inverse); });
  if (!Compiled)
    return Fail(Compiled.status().message());
  R.num("rules_fused", Compiled->fusedRules());
  R.num("rules_total", Compiled->numRules());

  std::mt19937_64 Rng(Seed);
  unsigned Bps = Spec.SymbolBits / 8;
  Symbols X = Spec.MakeInput(Rng, unsigned(PayloadKb * 1024 / Bps / 2));
  MaybeSymbols FX = Spec.Oracle(X);
  if (!FX)
    return Fail("reference coder rejected its sampler's input");
  std::vector<uint8_t> Payload = frame(*FX, Spec.SymbolBits);
  std::vector<uint8_t> Expected = frame(X, Spec.SymbolBits), Decoded;
  StreamDecoder D(*Compiled);
  Status St = timed("perfbench.decode", R, "decode_s", nullptr, [&] {
    constexpr size_t Chunk = 64 * 1024;
    for (size_t Pos = 0; Pos < Payload.size(); Pos += Chunk) {
      size_t N = std::min(Chunk, Payload.size() - Pos);
      Status S = D.feed(
          std::span<const uint8_t>(Payload.data() + Pos, N), Decoded);
      if (!S.isOk())
        return S;
    }
    return D.finish(Decoded);
  });
  R.num("decode_bytes", double(Payload.size()));
  R.num("rules_fired", double(D.stats().RulesFired));
  R.flag("decoded_ok", St.isOk() && Decoded == Expected);

  std::vector<uint8_t> RefOut;
  timed("perfbench.reference", R, "reference_s", nullptr, [&] {
    MaybeSymbols Back = Spec.InverseOracle(unframe(Payload, Spec.SymbolBits));
    if (Back)
      RefOut = frame(*Back, Spec.SymbolBits);
    return 0;
  });
  R.flag("reference_ok", RefOut == Expected);
  R.flag("ok", true);
  R.print();
  return true;
}

int usage() {
  std::fprintf(stderr, "usage: layer_trace --coders \"A;B\" --jobs N "
                       "--seed N --payload-kb K [--no-injectivity] "
                       "--trace-out FILE\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Coders, TraceOut;
  unsigned Jobs = 1;
  uint64_t Seed = 1;
  size_t PayloadKb = 64;
  bool Injectivity = true;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key == "--no-injectivity") {
      Injectivity = false;
      continue;
    }
    if (I + 1 >= Argc)
      return usage();
    std::string Val = Argv[++I];
    if (Key == "--coders")
      Coders = Val;
    else if (Key == "--jobs")
      Jobs = std::max(1, std::atoi(Val.c_str()));
    else if (Key == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--payload-kb")
      PayloadKb = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--trace-out")
      TraceOut = Val;
    else
      return usage();
  }
  if (Coders.empty() || TraceOut.empty())
    return usage();

  TraceRecorder::global().enable();
  TraceRecorder::global().nameThisThread("main");
  bool AllOk = true;
  std::stringstream In(Coders);
  std::string Name;
  while (std::getline(In, Name, ';')) {
    const CoderSpec *Spec = nullptr;
    for (const CoderSpec &S : coderCorpus())
      if (S.name() == Name)
        Spec = &S;
    if (!Spec) {
      std::fprintf(stderr, "unknown coder '%s'\n", Name.c_str());
      return 2;
    }
    AllOk &= runCoder(*Spec, Jobs, Injectivity, Seed, PayloadKb);
  }
  TraceRecorder::global().disable();
  if (Status St = TraceRecorder::global().writeJson(TraceOut); !St) {
    std::fprintf(stderr, "error: %s\n", St.message().c_str());
    return 1;
  }
  return AllOk ? 0 : 1;
}
