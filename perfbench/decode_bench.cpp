//===- perfbench/decode_bench.cpp - End-to-end decode harness -------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end half of the benchmark that needs the library rather than
/// a shipped tool. It uses only the public engine, runtime and coders
/// headers, so refactors of the internal layers cannot stop it from
/// building.
///
///   decode_bench vectors --coder NAME --seed N --len L --out PREFIX
///     Writes reference-coder test vectors for one Table-1 coder, framed as
///     the stream decoder frames symbols (little-endian, SymbolBits/8 bytes
///     each): PREFIX.x (a seeded input x), PREFIX.fx (the reference coder's
///     f(x), what the inverse must map back to x) and, when the reference
///     inverse rejects some mutation of a short f(x), PREFIX.bad.
///
///   decode_bench stream --coders "A;B;..." --seed N --seconds S --mb M
///     Synthesizes each coder's inverse once through the engine, compiles
///     it, and builds a seeded payload of about M MB per coder with the
///     reference coder. Prints SETUP_DONE, then decodes every payload in
///     64 KiB chunks round after round for S seconds, checking each output
///     byte for byte. After each round it times the reference decoders on
///     the same payloads and one unit of the host speed gauge
///     (GaugeWork.h). The last line is one JSON object.
///
//===----------------------------------------------------------------------===//

#include "GaugeWork.h"
#include "coders/Corpus.h"
#include "engine/InversionEngine.h"
#include "runtime/StreamDecoder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace genic;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const CoderSpec *findCoder(const std::string &Name) {
  for (const CoderSpec &Spec : coderCorpus())
    if (Spec.name() == Name)
      return &Spec;
  return nullptr;
}

std::vector<uint8_t> frame(const Symbols &S, unsigned Bits) {
  std::vector<uint8_t> Out;
  Out.reserve(S.size() * (Bits / 8));
  for (uint64_t V : S)
    for (unsigned I = 0; I != Bits / 8; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  return Out;
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            std::streamsize(Bytes.size()));
  return bool(Out);
}

/// Drops the isInjective operation: decode-stream synthesizes inverses
/// without forcing the injectivity check.
std::string withoutInjectivityOp(std::string Source) {
  size_t Pos = Source.find("isInjective");
  if (Pos == std::string::npos)
    return Source;
  size_t End = Source.find('\n', Pos);
  Source.erase(Pos, End == std::string::npos ? End : End - Pos + 1);
  return Source;
}

/// A seeded mutation of \p Encoded that the reference inverse rejects, or
/// nothing when none turns up (total inverses such as the byte encoders).
MaybeSymbols rejectedMutation(const CoderSpec &Spec, const Symbols &Encoded,
                              std::mt19937_64 &Rng) {
  if (Encoded.empty())
    return std::nullopt;
  for (unsigned Try = 0; Try != 400; ++Try) {
    Symbols Bad = Encoded;
    size_t Pos = Rng() % Bad.size();
    Bad[Pos] = Spec.SymbolBits == 8 ? Rng() % 256 : Rng() % 0x120000;
    if (!Spec.InverseOracle(Bad))
      return Bad;
  }
  return std::nullopt;
}

int vectorsMain(const std::string &Coder, uint64_t Seed, unsigned Len,
                const std::string &Prefix) {
  const CoderSpec *Spec = findCoder(Coder);
  if (!Spec) {
    std::fprintf(stderr, "unknown coder '%s'\n", Coder.c_str());
    return 2;
  }
  std::mt19937_64 Rng(Seed);
  Symbols X = Spec->MakeInput(Rng, Len);
  MaybeSymbols FX = Spec->Oracle(X);
  if (!FX) {
    std::fprintf(stderr, "%s: reference coder rejected its sampler's input\n",
                 Coder.c_str());
    return 1;
  }
  bool Ok = writeFile(Prefix + ".x", frame(X, Spec->SymbolBits)) &&
            writeFile(Prefix + ".fx", frame(*FX, Spec->SymbolBits));
  // Kept short: the rejection check passes it on a command line.
  MaybeSymbols Short = Spec->Oracle(Spec->MakeInput(Rng, 6));
  if (Short)
    if (MaybeSymbols Bad = rejectedMutation(*Spec, *Short, Rng))
      Ok = Ok && writeFile(Prefix + ".bad", frame(*Bad, Spec->SymbolBits));
  return Ok ? 0 : 1;
}

struct StreamCoder {
  const CoderSpec *Spec = nullptr;
  std::unique_ptr<GenicTool> Tool; // Owns the terms the machines use.
  std::optional<GenicReport> Report;
  std::optional<CompiledSeft> Compiled;
  std::vector<uint8_t> Payload;  // Reference f(x), framed.
  std::vector<uint8_t> Expected; // x, framed.
  std::vector<uint8_t> Rejected; // A framed input the reference rejects.
  Symbols EncodedSymbols;        // The payload unframed, for the reference.
};

/// Decodes \p In in \p Chunk-byte slices; false when the decoder rejects.
bool decode(const CompiledSeft &M, const std::vector<uint8_t> &In,
            size_t Chunk, std::vector<uint8_t> &Out, uint64_t *Rules) {
  StreamDecoder D(M);
  Out.clear();
  for (size_t Pos = 0; Pos < In.size(); Pos += Chunk) {
    size_t N = std::min(Chunk, In.size() - Pos);
    if (!D.feed(std::span<const uint8_t>(In.data() + Pos, N), Out).isOk())
      return false;
  }
  if (!D.finish(Out).isOk())
    return false;
  if (Rules)
    *Rules += D.stats().RulesFired;
  return true;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream In(S);
  std::string Item;
  while (std::getline(In, Item, ';'))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

int streamMain(const std::string &CoderList, uint64_t Seed, double Seconds,
               double MB) {
  constexpr size_t FeedChunk = 64 * 1024;
  constexpr size_t OddChunk = 4093; // Splits 4-byte symbols mid-symbol.
  std::vector<StreamCoder> Coders;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  auto Check = [&](bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      Errors.push_back(What);
    }
  };

  double SynthSeconds = 0, CompileSeconds = 0;
  std::mt19937_64 Rng(Seed);
  for (const std::string &Name : splitList(CoderList)) {
    StreamCoder C;
    C.Spec = findCoder(Name);
    if (!C.Spec) {
      std::fprintf(stderr, "unknown coder '%s'\n", Name.c_str());
      return 2;
    }
    C.Tool = std::make_unique<GenicTool>();
    double T0 = now();
    Result<GenicReport> Report =
        C.Tool->run(withoutInjectivityOp(C.Spec->Source), false, true);
    double T1 = now();
    SynthSeconds += T1 - T0;
    if (!Report || !Report->InverseMachine || !Report->Inversion ||
        !Report->Inversion->complete()) {
      std::fprintf(stderr, "%s: inversion failed\n", Name.c_str());
      return 1;
    }
    Result<CompiledSeft> Compiled =
        CompiledSeft::compile(*Report->InverseMachine);
    CompileSeconds += now() - T1;
    if (!Compiled) {
      std::fprintf(stderr, "%s: %s\n", Name.c_str(),
                   Compiled.status().message().c_str());
      return 1;
    }
    C.Compiled.emplace(std::move(*Compiled));
    C.Report.emplace(std::move(*Report));

    // The payload: seeded input x, encoded by the reference coder.
    unsigned Bps = C.Spec->SymbolBits / 8;
    Symbols X = C.Spec->MakeInput(Rng, unsigned(MB * 1e6 / Bps / 2));
    MaybeSymbols FX = C.Spec->Oracle(X);
    if (!FX) {
      std::fprintf(stderr, "%s: reference coder rejected its input\n",
                   Name.c_str());
      return 1;
    }
    C.Payload = frame(*FX, C.Spec->SymbolBits);
    C.Expected = frame(X, C.Spec->SymbolBits);
    C.EncodedSymbols = std::move(*FX);
    MaybeSymbols Short = C.Spec->Oracle(C.Spec->MakeInput(Rng, 64));
    if (Short)
      if (MaybeSymbols Bad = rejectedMutation(*C.Spec, *Short, Rng))
        C.Rejected = frame(*Bad, C.Spec->SymbolBits);
    Coders.push_back(std::move(C));
  }
  if (Coders.empty()) {
    std::fprintf(stderr, "no coders given\n");
    return 2;
  }

  // Once per run: a second chunk size gives the same bytes, and inputs the
  // reference inverse rejects are rejected by the decoder too.
  std::vector<uint8_t> Out;
  for (const StreamCoder &C : Coders) {
    Check(decode(*C.Compiled, C.Payload, OddChunk, Out, nullptr) &&
              Out == C.Expected,
          C.Spec->name() + ": output differs under a second chunk size");
    if (!C.Rejected.empty())
      Check(!decode(*C.Compiled, C.Rejected, FeedChunk, Out, nullptr),
            C.Spec->name() + ": accepts an input the reference rejects");
  }
  std::printf("SETUP_DONE\n");
  std::fflush(stdout);

  // Timed rounds: feed + finish only; the output comparison is outside.
  std::vector<double> RoundMBps, RefMBps, GaugeSeconds;
  uint64_t RulesFired = 0, GaugeCheck = 0;
  double Start = now();
  do {
    double Bytes = 0, Busy = 0, RefBusy = 0;
    for (const StreamCoder &C : Coders) {
      double T0 = now();
      bool Ok = decode(*C.Compiled, C.Payload, FeedChunk, Out, &RulesFired);
      double T1 = now();
      MaybeSymbols Back = C.Spec->InverseOracle(C.EncodedSymbols);
      RefBusy += now() - T1;
      Busy += T1 - T0;
      Bytes += double(C.Payload.size());
      Check(Ok && Out == C.Expected && Back,
            C.Spec->name() + ": decoded output differs from the payload");
    }
    RoundMBps.push_back(Bytes / Busy / 1e6);
    RefMBps.push_back(Bytes / RefBusy / 1e6);
    GaugeSeconds.push_back(perfbench::gaugeSeconds(1, GaugeCheck));
  } while (now() - Start < Seconds);

  // The checks above must be able to fail: a flipped decoded byte, and an
  // inverse fed another coder's payload, are both caught.
  bool FlipCaught = false, WrongCoderCaught = false;
  {
    const StreamCoder &C = Coders.front();
    std::vector<uint8_t> Flipped;
    bool Ok = decode(*C.Compiled, C.Payload, FeedChunk, Flipped, nullptr);
    if (!Flipped.empty())
      Flipped[Flipped.size() / 2] ^= 0x01;
    FlipCaught = !(Ok && Flipped == C.Expected);
    const StreamCoder &Other = Coders.back();
    bool OtherOk = decode(*C.Compiled, Other.Payload, FeedChunk, Out, nullptr);
    WrongCoderCaught = Coders.size() > 1 && !(OtherOk && Out == C.Expected);
  }

  uint64_t PayloadBytes = 0;
  for (const StreamCoder &C : Coders)
    PayloadBytes += C.Payload.size();
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"synth_s\": %.6f, "
              "\"compile_s\": %.6f, \"payload_bytes\": %llu, "
              "\"rules_fired\": %llu, \"flip_caught\": %s, "
              "\"wrong_coder_caught\": %s, \"round_MBps\": [",
              (unsigned long long)Attempted, (unsigned long long)Failed,
              SynthSeconds, CompileSeconds, (unsigned long long)PayloadBytes,
              (unsigned long long)RulesFired, FlipCaught ? "true" : "false",
              WrongCoderCaught ? "true" : "false");
  for (size_t I = 0; I != RoundMBps.size(); ++I)
    std::printf("%s%.6f", I ? ", " : "", RoundMBps[I]);
  std::printf("], \"ref_MBps\": [");
  for (size_t I = 0; I != RefMBps.size(); ++I)
    std::printf("%s%.6f", I ? ", " : "", RefMBps[I]);
  std::printf("], \"gauge_s\": [");
  for (size_t I = 0; I != GaugeSeconds.size(); ++I)
    std::printf("%s%.9f", I ? ", " : "", GaugeSeconds[I]);
  std::printf("], \"gauge_check\": %llu, \"errors\": [",
              (unsigned long long)GaugeCheck);
  for (size_t I = 0; I != Errors.size() && I != 8; ++I)
    std::printf("%s\"%s\"", I ? ", " : "", Errors[I].c_str());
  std::printf("]}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: decode_bench vectors --coder NAME --seed N --len L "
               "--out PREFIX\n"
               "       decode_bench stream --coders \"A;B\" --seed N "
               "--seconds S --mb M\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Mode = Argv[1], Coder, Coders, Out;
  uint64_t Seed = 1;
  unsigned Len = 64;
  double Seconds = 1, MB = 2;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--coder")
      Coder = Val;
    else if (Key == "--coders")
      Coders = Val;
    else if (Key == "--out")
      Out = Val;
    else if (Key == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--len")
      Len = unsigned(std::strtoul(Val.c_str(), nullptr, 10));
    else if (Key == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Key == "--mb")
      MB = std::atof(Val.c_str());
    else
      return usage();
  }
  if (Mode == "vectors" && !Coder.empty() && !Out.empty())
    return vectorsMain(Coder, Seed, Len, Out);
  if (Mode == "stream")
    return streamMain(Coders, Seed, Seconds, MB);
  return usage();
}
