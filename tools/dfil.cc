// dfil: the analysis CLI over the runtime's observability artifacts — METRICS_*.json, Chrome
// TRACE_*.json, FLIGHT_*.json and the CI gate baselines. `dfil help` lists the commands. They
// live in tools/report_lib (RunCli) with the exit-code contract, so tests drive them in process.
#include <iostream>

#include "tools/report_lib.h"

int main(int argc, char** argv) {
  return dfil::report::RunCli({argv + 1, argv + argc}, std::cout, std::cerr);
}
