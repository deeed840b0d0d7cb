/**
 * @file
 * The four workloads. Each returns the end-to-end metrics of its run
 * and, when tracing, fills the per-layer numbers it measures.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <map>
#include <string>

#include "treebeard/compiler.h"
#include "util.h"

namespace perfbench {

/**
 * Per-layer numbers of one traced run, keyed by metric name. A layer
 * the workload bypasses reads 0 (see the README's layer table).
 */
using LayerNumbers = std::map<std::string, double>;

/** The end-to-end numbers every workload reports. */
struct EndToEnd
{
    double setupSeconds = 0.0;
    double rowsPerSecond = 0.0;
    double latencyP50Us = 0.0;
    int64_t attempted = 0;
};

/** State shared by a run's phases. */
struct RunContext
{
    const Options &options;
    /** Taken first thing in main(): setup_s is timed from here. */
    Clock::time_point processStart;
    Tracer &tracer;
    CheckCounter &checks;
    LayerNumbers &layers;
};

/**
 * Add a compiled session's pass times (hir/mir/lir/analysis), buffer
 * footprint and JIT compile time and source size to @p layers.
 */
void addCompileLayers(const treebeard::Session &session,
                      LayerNumbers &layers);

/** batch-kernel (jit = false) and batch-jit (jit = true). */
EndToEnd runBatch(RunContext &context, bool jit);

/** serve-trickle (burst = false) and serve-burst (burst = true). */
EndToEnd runServe(RunContext &context, bool burst);

/**
 * Per-call seconds that the host's fast phase sets: the 10th
 * percentile of the calls. See the README for why a median of batch
 * calls does not repeat on this host.
 */
double fastPhaseSeconds(const std::vector<double> &call_seconds);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
