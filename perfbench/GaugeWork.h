//===- perfbench/GaugeWork.h - Host speed gauge work -------------*- C++ -*-===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed amount of work that no change to genic can move: it uses only
/// Z3 and the C++ library. One unit mixes the kinds of work the program
/// does: a Z3 bit-vector query, hash-map and sort work over seeded keys,
/// and a byte-table decode loop. The benchmark times units beside the
/// operations it measures and scales each timing by how fast the gauge ran,
/// so a host that slows down or speeds up for a while (other virtual
/// machines on the same hardware) moves the gauge and the program together.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GAUGEWORK_H
#define PERFBENCH_GAUGEWORK_H

#include <z3++.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Factors a 24-bit semiprime with bit-vector multiplication.
inline uint64_t solverWork(unsigned Unit) {
  static const uint64_t Products[] = {4093ULL * 4091ULL, 4079ULL * 4073ULL,
                                      2039ULL * 4057ULL, 3067ULL * 4051ULL};
  z3::context C;
  z3::solver S(C);
  z3::params P(C);
  P.set("random_seed", 7u);
  S.set(P);
  z3::expr X = C.bv_const("x", 24), Y = C.bv_const("y", 24);
  uint64_t N = Products[Unit % 4];
  S.add(X * Y == C.bv_val(N, 24));
  S.add(z3::ugt(X, C.bv_val(uint64_t(1), 24)) &&
        z3::ugt(Y, C.bv_val(uint64_t(1), 24)));
  S.add(z3::ult(X, C.bv_val(uint64_t(1) << 12, 24)) &&
        z3::ult(Y, C.bv_val(uint64_t(1) << 12, 24)));
  if (S.check() != z3::sat)
    return 0;
  return S.get_model().eval(X).get_numeral_uint64();
}

/// Inserts, looks up and sorts seeded keys.
inline uint64_t memoryWork(unsigned Unit) {
  std::mt19937_64 Rng(Unit);
  std::unordered_map<uint64_t, uint64_t> Map;
  std::vector<uint64_t> Keys(60000);
  for (uint64_t &K : Keys) {
    K = Rng() % 200000;
    Map[K] += K;
  }
  uint64_t Sum = 0;
  for (uint64_t K : Keys)
    Sum += Map.count(K ^ 1);
  std::sort(Keys.begin(), Keys.end());
  return Sum + Keys[Keys.size() / 2];
}

/// Decodes hex text through a lookup table.
inline uint64_t byteWork(unsigned Unit) {
  std::mt19937_64 Rng(Unit + 1000);
  static const char Hex[] = "0123456789abcdef";
  std::vector<uint8_t> Text(1 << 19);
  for (uint8_t &C : Text)
    C = uint8_t(Hex[Rng() % 16]);
  int8_t Table[256];
  std::memset(Table, -1, sizeof(Table));
  for (int I = 0; I != 16; ++I)
    Table[uint8_t(Hex[I])] = int8_t(I);
  uint64_t Sum = 0;
  for (int Pass = 0; Pass != 6; ++Pass)
    for (size_t I = 0; I + 1 < Text.size(); I += 2)
      Sum += uint8_t((Table[Text[I]] << 4) | Table[Text[I + 1]]) ^ Pass;
  return Sum;
}

/// Runs \p Units gauge units; returns their seconds. \p Check receives a
/// value derived from the results, so the work cannot be optimised away.
inline double gaugeSeconds(unsigned Units, uint64_t &Check) {
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned U = 0; U != Units; ++U)
    Check += solverWork(U) + memoryWork(U) + byteWork(U);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace perfbench

#endif // PERFBENCH_GAUGEWORK_H
