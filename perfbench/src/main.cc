/**
 * @file
 * Entry point of the end-to-end benchmark binary.
 *
 *   perfbench gen --workload W --seed N --work DIR
 *       write the workload's seeded model files into DIR;
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *                 --work DIR [--trace-file PATH] [--corrupt-call K]
 *       set up, verify and measure one workload, then print the result
 *       line (end-to-end metrics, or per-layer metrics when tracing).
 *
 * perfbench/run.py builds this binary and runs both steps; the model
 * files come from a separate process so setup_s times only the program.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "models.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in the order BENCHMARK.json lists them. */
constexpr MetricSpec kLayerMetrics[] = {
    {"model.load_s", "s"},
    {"hir.tiling_s", "s"},
    {"hir.reorder_s", "s"},
    {"mir.lower_s", "s"},
    {"lir.lower_s", "s"},
    {"analysis.verify_s", "s"},
    {"lir.footprint_bytes", "bytes"},
    {"runtime.us_per_row.higgs", "us"},
    {"runtime.us_per_row.airline-ohe", "us"},
    {"runtime.us_per_row.letter", "us"},
    {"codegen.jit_compile_s", "s"},
    {"codegen.source_bytes", "bytes"},
    {"codegen.us_per_row.higgs", "us"},
    {"codegen.us_per_row.airline-ohe", "us"},
    {"codegen.us_per_row.letter", "us"},
    {"serve.load_s", "s"},
    {"serve.batch_wait_us", "us"},
    {"serve.wire_us", "us"},
    {"serve.session_us", "us"},
    {"serve.rows_per_batch", "rows"},
    {"serve.size_flushes", "count"},
    {"serve.deadline_flushes", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench gen|run --workload W --seed N --work DIR\n"
                 "       [--seconds S] [--trace 0|1] [--trace-file PATH]\n"
                 "       [--corrupt-call K]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv, std::string *trace_file)
{
    if (argc < 2)
        usage("missing mode");
    Options options;
    options.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("flag without a value");
        std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            options.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--work")
            options.workDir = value;
        else if (flag == "--trace-file")
            *trace_file = value;
        else if (flag == "--corrupt-call")
            options.corruptCall = std::strtoll(value, nullptr, 10);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (options.workload.empty() || options.workDir.empty())
        usage("--workload and --work are required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

int
run(const Options &options, Clock::time_point process_start,
    const std::string &trace_file)
{
    Tracer tracer(options.trace);
    CheckCounter checks(options.corruptCall);
    LayerNumbers layers;
    RunContext context{options, process_start, tracer, checks, layers};

    EndToEnd e2e;
    if (options.workload == "batch-kernel")
        e2e = runBatch(context, /*jit=*/false);
    else if (options.workload == "batch-jit")
        e2e = runBatch(context, /*jit=*/true);
    else if (options.workload == "serve-trickle")
        e2e = runServe(context, /*burst=*/false);
    else if (options.workload == "serve-burst")
        e2e = runServe(context, /*burst=*/true);
    else
        usage(("unknown workload " + options.workload).c_str());

    Result result;
    result.attempted = e2e.attempted;
    result.failed = 0;
    std::vector<Metric> end_to_end = {
        {"setup_s", e2e.setupSeconds, "s"},
        {"rows_per_s", e2e.rowsPerSecond, "rows/s"},
        {"latency_p50_us", e2e.latencyP50Us, "us"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
    };
    if (!options.trace) {
        result.metrics = end_to_end;
    } else {
        // The traced run's end-to-end figures, for the tracing overhead.
        std::fprintf(stderr, "traced end-to-end: %s\n",
                     resultJson({true, e2e.attempted, 0, end_to_end}).c_str());
        for (const MetricSpec &spec : kLayerMetrics)
            result.metrics.push_back({spec.name, layers[spec.name], spec.unit});
        if (!trace_file.empty())
            tracer.writeJson(trace_file, process_start);
    }
    std::printf("%s\n", resultJson(result).c_str());
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Clock::time_point process_start = Clock::now();
    std::string trace_file;
    Options options = parseOptions(argc, argv, &trace_file);
    try {
        if (options.mode == "gen") {
            for (const ModelCase &model :
                 casesFor(options.workload, options.seed))
                writeModel(model, modelPath(options.workDir, model));
            return 0;
        }
        if (options.mode == "run")
            return run(options, process_start, trace_file);
        usage("mode must be gen or run");
    } catch (const CheckFailure &failure) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.what());
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: error: %s\n", error.what());
        return 3;
    }
}
