// The benchmark's three workloads. Each has a timed run (tracing off: the
// end-to-end metrics) and a traced run (the per-layer ledger); both build
// their inputs from Options::seed and fill a Result.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_sweep(const Options& opt, Result& out);
void trace_sweep(const Options& opt, Tracer& tracer, Result& out);

void run_queue_deep(const Options& opt, Result& out);
void trace_queue_deep(const Options& opt, Tracer& tracer, Result& out);

void run_durable_recover(const Options& opt, Result& out);
void trace_durable_recover(const Options& opt, Tracer& tracer, Result& out);

}  // namespace perfbench
