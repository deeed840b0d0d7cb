#include <cstdio>
#include <filesystem>
#include <memory>

#include "model/serialization.h"
#include "models.h"
#include "reference.h"
#include "treebeard/compiler.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Distinct 1024-row batches per case; calls cycle through them. */
constexpr int64_t kPoolBatches = 4;
constexpr int64_t kPoolRows = kPoolBatches * kBatchRows;
/** How often the timed phase re-probes the CPUs. */
constexpr double kProbeWindowSeconds = 0.5;

struct BatchCase
{
    ModelCase model;
    std::unique_ptr<treebeard::Session> session;
    std::vector<float> rows;
    /** Outputs for the whole pool, checked against the reference. */
    std::vector<float> verified;
    std::vector<double> callSeconds;

    int32_t classes() const { return model.numClasses; }
    int32_t features() const { return model.spec.numFeatures; }
    const float *batchRows(int64_t b) const
    {
        return rows.data() + b * kBatchRows * features();
    }
};

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double value : values)
        total += value;
    return total;
}

} // namespace

void
addCompileLayers(const treebeard::Session &session, LayerNumbers &layers)
{
    const treebeard::CompilationArtifacts &artifacts = session.artifacts();
    for (const treebeard::ir::PassTrace &pass : artifacts.passTraces) {
        const std::string &name = pass.name;
        std::string layer;
        if (name.find("verify") != std::string::npos)
            layer = "analysis.verify_s";
        else if (name == "hir-tiling")
            layer = "hir.tiling_s";
        else if (name == "hir-reorder-trees")
            layer = "hir.reorder_s";
        else if (name == "lower-to-mir" || name.rfind("mir-", 0) == 0)
            layer = "mir.lower_s";
        else if (name == "lower-to-lir" || name.rfind("lir-", 0) == 0)
            layer = "lir.lower_s";
        else
            continue;
        layers[layer] += pass.seconds;
    }
    const treebeard::lir::ForestBuffers &buffers =
        session.backend() == treebeard::Backend::kKernel
            ? session.plan().buffers()
            : session.jit().buffers();
    layers["lir.footprint_bytes"] +=
        static_cast<double>(buffers.footprintBytes());
    layers["codegen.jit_compile_s"] += artifacts.jitCompileSeconds;
    layers["codegen.source_bytes"] +=
        static_cast<double>(artifacts.generatedSource.size());
}

double
fastPhaseSeconds(const std::vector<double> &call_seconds)
{
    return quantile(call_seconds, 0.10);
}

EndToEnd
runBatch(RunContext &context, bool jit)
{
    const Options &options = context.options;
    Tracer &tracer = context.tracer;
    std::vector<BatchCase> cases;
    for (ModelCase &model : batchCases(options.seed))
        cases.push_back({std::move(model), nullptr, {}, {}, {}});

    treebeard::CompilerOptions compiler;
    if (jit) {
        compiler.backend = treebeard::Backend::kSourceJit;
        // Fresh and empty in every run, so the system compiler runs.
        compiler.jit.cacheDir = options.workDir + "/jit-cache";
        std::filesystem::remove_all(compiler.jit.cacheDir);
        std::filesystem::create_directories(compiler.jit.cacheDir);
    }

    // Set-up: load, compile and the first prediction of every case. The
    // system compiler's processes inherit the pinned CPU.
    pinToFastestCpu(spinProbe);
    EndToEnd result;
    double input_seconds = 0.0;
    TimedSpan setup(tracer, "setup", "");
    for (BatchCase &c : cases) {
        TimedSpan load(tracer, "model::loadForest", c.model.name, setup.id());
        treebeard::model::Forest forest =
            treebeard::model::loadForest(modelPath(options.workDir, c.model));
        load.stop();
        TimedSpan compile(tracer, "treebeard::compile", c.model.name,
                          setup.id());
        c.session = std::make_unique<treebeard::Session>(
            treebeard::compile(forest, c.model.schedule, compiler));
        compile.stop();

        Clock::time_point inputs = Clock::now();
        c.rows = makeRows(c.model, kPoolRows);
        c.verified.resize(static_cast<size_t>(kPoolRows) * c.classes());
        input_seconds += secondsSince(inputs);

        TimedSpan first(tracer, "Session::predict", c.model.name,
                        setup.id());
        c.session->predict(c.batchRows(0), kBatchRows, c.verified.data());
        first.stop();
    }
    setup.stop();
    result.setupSeconds =
        secondsSince(context.processStart) - input_seconds;

    // Verify each pool once against the reference walk; afterwards
    // every call must reproduce these outputs bit for bit.
    for (BatchCase &c : cases) {
        for (int64_t b = 1; b < kPoolBatches; ++b) {
            c.session->predict(c.batchRows(b), kBatchRows,
                               c.verified.data() +
                                   b * kBatchRows * c.classes());
        }
        context.checks.next(c.verified.data(), kPoolRows, c.classes());
        ReferenceModel reference =
            readReferenceModel(modelPath(options.workDir, c.model));
        checkAgainstReference(reference, c.rows.data(), kPoolRows,
                              c.verified.data(),
                              options.workload + " " + c.model.name);
        if (jit) {
            // The documented backend invariant: the source JIT equals
            // the kernel runtime bit for bit.
            treebeard::Session kernel = treebeard::compile(
                treebeard::model::loadForest(
                    modelPath(options.workDir, c.model)),
                c.model.schedule);
            std::vector<float> kernel_out(c.verified.size());
            for (int64_t b = 0; b < kPoolBatches; ++b) {
                kernel.predict(c.batchRows(b), kBatchRows,
                               kernel_out.data() +
                                   b * kBatchRows * c.classes());
            }
            expectSameBits(c.verified.data(), kernel_out.data(), kPoolRows,
                           c.classes(), 0,
                           "batch-jit " + c.model.name +
                               " against the kernel backend");
        }
    }

    // Timed phase: whole rounds of one call per case, round-robin, so
    // every case sees the same mix of host phases. Every window the
    // thread moves to the CPU on which a higgs call runs fastest; the
    // probe calls are checked but not timed.
    std::vector<std::vector<float>> out(cases.size());
    for (size_t i = 0; i < cases.size(); ++i)
        out[i].resize(static_cast<size_t>(kBatchRows) * cases[i].classes());
    TimedSpan phase(tracer, "phase.timed", "");
    Clock::time_point start = Clock::now();
    int64_t round = 0;
    double next_probe = 0.0;
    while (secondsSince(start) < options.seconds) {
        int64_t b = round % kPoolBatches;
        if (secondsSince(start) >= next_probe) {
            BatchCase &probe_case = cases[0];
            pinToFastestCpu([&] {
                probe_case.session->predict(probe_case.batchRows(b),
                                            kBatchRows, out[0].data());
                expectSameBits(out[0].data(),
                               probe_case.verified.data() +
                                   b * kBatchRows * probe_case.classes(),
                               kBatchRows, probe_case.classes(),
                               b * kBatchRows,
                               options.workload + " probe call");
            });
            next_probe += kProbeWindowSeconds;
        }
        for (size_t i = 0; i < cases.size(); ++i) {
            BatchCase &c = cases[i];
            TimedSpan call(tracer, "Session::predict", c.model.name,
                           phase.id(), result.attempted);
            c.session->predict(c.batchRows(b), kBatchRows, out[i].data());
            c.callSeconds.push_back(call.stop());
            ++result.attempted;
            context.checks.next(out[i].data(), kBatchRows, c.classes());
            expectSameBits(out[i].data(),
                           c.verified.data() + b * kBatchRows * c.classes(),
                           kBatchRows, c.classes(), b * kBatchRows,
                           options.workload + " " + c.model.name +
                               " call " + std::to_string(round));
        }
        ++round;
    }
    phase.stop();

    std::vector<double> rates, p50;
    for (BatchCase &c : cases) {
        double fast = fastPhaseSeconds(c.callSeconds);
        rates.push_back(static_cast<double>(kBatchRows) / fast);
        p50.push_back(quantile(c.callSeconds, 0.50) * 1e6);
        std::fprintf(stderr,
                     "%s %s: %zu calls, fast-phase %.2f us/row, "
                     "p50 %.1f us, max %.1f us\n",
                     options.workload.c_str(), c.model.name.c_str(),
                     c.callSeconds.size(), fast * 1e6 / kBatchRows,
                     p50.back(), quantile(c.callSeconds, 1.0) * 1e6);
    }
    result.rowsPerSecond = geomean(rates);
    result.latencyP50Us = geomean(p50);

    if (tracer.enabled()) {
        LayerNumbers &layers = context.layers;
        for (BatchCase &c : cases) {
            layers["model.load_s"] +=
                sum(tracer.durations("model::loadForest", c.model.name));
            addCompileLayers(*c.session, layers);
            std::vector<double> calls =
                tracer.durations("Session::predict", c.model.name);
            // The set-up call is the first span; the timed calls follow.
            calls.erase(calls.begin());
            layers[std::string(jit ? "codegen" : "runtime") +
                   ".us_per_row." + c.model.name] =
                fastPhaseSeconds(calls) * 1e6 / kBatchRows;
        }
    }
    return result;
}

} // namespace perfbench
