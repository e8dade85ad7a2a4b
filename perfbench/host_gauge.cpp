//===- perfbench/host_gauge.cpp - Host speed gauge ------------------------===//
//
// Part of the genic project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the gauge work of GaugeWork.h between the operations run.py times.
///
///   host_gauge --units N
///
/// Prints the seconds N units took.
///
//===----------------------------------------------------------------------===//

#include "GaugeWork.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

int main(int Argc, char **Argv) {
  unsigned Units = 1;
  if (Argc == 3 && std::strcmp(Argv[1], "--units") == 0)
    Units = unsigned(std::max(1, std::atoi(Argv[2])));
  else if (Argc != 1) {
    std::fprintf(stderr, "usage: host_gauge [--units N]\n");
    return 2;
  }
  uint64_t Check = 0;
  double Seconds = perfbench::gaugeSeconds(Units, Check);
  std::printf("%.9f %llu\n", Seconds, (unsigned long long)Check);
  return 0;
}
