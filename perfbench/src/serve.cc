#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <thread>

#include "model/serialization.h"
#include "models.h"
#include "reference.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "treebeard/compiler.h"
#include "workloads.h"

namespace perfbench {

namespace {

using treebeard::serve::Client;
using treebeard::serve::ModelHandle;

constexpr int64_t kPoolRows = 4096;
/** Rows per request when verifying the pool over the wire. */
constexpr int64_t kVerifyRows = 128;

/** The load shape: closed-loop clients and rows per request. */
struct Load
{
    int clients = 1;
    int64_t requestRows = 1;
};

struct Pool
{
    std::vector<float> rows;
    std::vector<float> verified;
    int32_t features = 0;
    int32_t classes = 1;
};

/** Latencies (seconds) and rows answered by one closed-loop phase. */
struct PhaseResult
{
    std::vector<double> latencies;
    int64_t rows = 0;
    double wallSeconds = 0.0;
};

/**
 * Run @p load.clients closed-loop threads for @p seconds; each calls
 * @p predict(client, first_row, num_rows) and checks the answer
 * against the verified pool. Exceptions from a thread are rethrown.
 */
PhaseResult
closedLoop(RunContext &context, const Pool &pool, const Load &load,
           double seconds, const char *span_name, const std::string &tag,
           const std::function<std::vector<float>(int, const float *,
                                                  int64_t)> &predict)
{
    Tracer &tracer = context.tracer;
    std::vector<std::vector<double>> latencies(
        static_cast<size_t>(load.clients));
    std::vector<std::exception_ptr> errors(static_cast<size_t>(load.clients));
    TimedSpan phase(tracer, "phase", tag);
    Clock::time_point start = Clock::now();
    auto body = [&](int client) {
        try {
            for (int64_t i = 0; secondsSince(start) < seconds; ++i) {
                int64_t first =
                    ((i * load.clients + client) * load.requestRows) %
                    kPoolRows;
                TimedSpan span(tracer, span_name, tag, phase.id(),
                               i * load.clients + client);
                std::vector<float> out = predict(
                    client, pool.rows.data() + first * pool.features,
                    load.requestRows);
                latencies[static_cast<size_t>(client)].push_back(
                    span.stop());
                if (static_cast<int64_t>(out.size()) !=
                    load.requestRows * pool.classes)
                    throw CheckFailure(tag + ": reply has " +
                                       std::to_string(out.size()) +
                                       " values");
                context.checks.next(out.data(), load.requestRows,
                                    pool.classes);
                expectSameBits(out.data(),
                               pool.verified.data() + first * pool.classes,
                               load.requestRows, pool.classes, first,
                               context.options.workload + " " + tag +
                                   " request " + std::to_string(i));
            }
        } catch (...) {
            errors[static_cast<size_t>(client)] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < load.clients; ++c)
        threads.emplace_back(body, c);
    body(0);
    for (std::thread &thread : threads)
        thread.join();
    PhaseResult result;
    result.wallSeconds = secondsSince(start);
    phase.stop();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    for (const std::vector<double> &client : latencies) {
        result.latencies.insert(result.latencies.end(), client.begin(),
                                client.end());
        result.rows += static_cast<int64_t>(client.size()) * load.requestRows;
    }
    return result;
}

/**
 * A counter from the STATS reply, found by key wherever it sits, so a
 * reshaped stats document still reads; 0 with a warning if absent.
 */
double
statsValue(const std::string &stats, const std::string &key)
{
    std::string quoted = "\"" + key + "\":";
    size_t at = stats.find(quoted);
    if (at == std::string::npos) {
        std::fprintf(stderr, "warning: STATS has no '%s'\n", key.c_str());
        return 0.0;
    }
    return std::strtod(stats.c_str() + at + quoted.size(), nullptr);
}

} // namespace

EndToEnd
runServe(RunContext &context, bool burst)
{
    const Options &options = context.options;
    Tracer &tracer = context.tracer;
    const ModelCase model = serveCase(options.seed);
    const Load load = burst ? Load{2, 128} : Load{1, 1};

    EndToEnd result;
    TimedSpan setup(tracer, "setup", "");
    TimedSpan start_server(tracer, "serve::Server", "", setup.id());
    treebeard::serve::Server server;
    treebeard::serve::WireServer wire(server);
    start_server.stop();
    TimedSpan load_span(tracer, "model::loadForest", "", setup.id());
    treebeard::model::Forest forest =
        treebeard::model::loadForest(modelPath(options.workDir, model));
    load_span.stop();
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < load.clients; ++c)
        clients.push_back(std::make_unique<Client>(wire.host(), wire.port()));
    TimedSpan load_model(tracer, "Client::loadModel", "", setup.id());
    ModelHandle handle = clients[0]->loadModel(forest, model.schedule);
    load_model.stop();

    Clock::time_point inputs = Clock::now();
    Pool pool;
    pool.features = model.spec.numFeatures;
    pool.classes = model.numClasses;
    pool.rows = makeRows(model, kPoolRows);
    pool.verified.resize(static_cast<size_t>(kPoolRows) * pool.classes);
    double input_seconds = secondsSince(inputs);

    TimedSpan first(tracer, "Client::predict", "setup", setup.id());
    std::vector<float> first_out =
        clients[0]->predict(handle, pool.rows.data(), 1, pool.features);
    first.stop();
    setup.stop();
    result.setupSeconds = secondsSince(context.processStart) - input_seconds;

    // Verify the pool once, over the wire, against the reference walk.
    for (int64_t r = 0; r < kPoolRows; r += kVerifyRows) {
        std::vector<float> out = clients[0]->predict(
            handle, pool.rows.data() + r * pool.features, kVerifyRows,
            pool.features);
        std::copy(out.begin(), out.end(),
                  pool.verified.begin() + r * pool.classes);
    }
    context.checks.next(pool.verified.data(), kPoolRows, pool.classes);
    checkAgainstReference(readReferenceModel(modelPath(options.workDir, model)),
                          pool.rows.data(), kPoolRows, pool.verified.data(),
                          options.workload);
    expectSameBits(first_out.data(), pool.verified.data(), 1, pool.classes,
                   0, options.workload + " first response");

    std::string stats_before = clients[0]->stats();
    PhaseResult wire_phase = closedLoop(
        context, pool, load, options.seconds, "Client::predict", "wire",
        [&](int c, const float *rows, int64_t n) {
            return clients[static_cast<size_t>(c)]->predict(handle, rows, n,
                                                            pool.features);
        });
    std::string stats_after = clients[0]->stats();
    result.attempted = static_cast<int64_t>(wire_phase.latencies.size());
    result.rowsPerSecond =
        static_cast<double>(wire_phase.rows) / wire_phase.wallSeconds;
    result.latencyP50Us = quantile(wire_phase.latencies, 0.50) * 1e6;
    std::fprintf(stderr,
                 "%s: %lld requests, %.0f rows/s, p50 %.1f us, p99 %.1f us\n",
                 options.workload.c_str(),
                 static_cast<long long>(result.attempted),
                 result.rowsPerSecond, result.latencyP50Us,
                 quantile(wire_phase.latencies, 0.99) * 1e6);

    if (tracer.enabled()) {
        LayerNumbers &layers = context.layers;
        auto delta = [&](const char *key) {
            return statsValue(stats_after, key) -
                   statsValue(stats_before, key);
        };
        double batches = delta("batches_executed");
        double rows_per_batch =
            batches > 0 ? delta("rows_executed") / batches : 0.0;
        layers["serve.rows_per_batch"] = rows_per_batch;
        layers["serve.size_flushes"] = delta("size_flushes");
        layers["serve.deadline_flushes"] = delta("deadline_flushes");
        layers["model.load_s"] =
            tracer.durations("model::loadForest", "")[0];
        layers["serve.load_s"] =
            tracer.durations("Client::loadModel", "")[0];

        // The same load straight into the in-process server.
        PhaseResult in_process = closedLoop(
            context, pool, load, options.seconds, "Server::predict",
            "in-process", [&](int, const float *rows, int64_t n) {
                return server.predict(handle, rows, n);
            });

        // One session alone, at the batch size the batcher formed.
        TimedSpan compile(tracer, "treebeard::compile", "", 0);
        treebeard::Session session =
            treebeard::compile(forest, model.schedule);
        compile.stop();
        int64_t batch_rows = std::max<int64_t>(
            1, static_cast<int64_t>(std::lround(rows_per_batch)));
        std::vector<float> out(static_cast<size_t>(batch_rows) *
                               pool.classes);
        std::vector<double> session_calls;
        TimedSpan phase(tracer, "phase", "session");
        Clock::time_point start = Clock::now();
        for (int64_t i = 0; secondsSince(start) < options.seconds / 2; ++i) {
            int64_t first_row = (i * batch_rows) % (kPoolRows - batch_rows);
            TimedSpan call(tracer, "Session::predict", "session", phase.id(),
                           i);
            session.predict(pool.rows.data() + first_row * pool.features,
                            batch_rows, out.data());
            session_calls.push_back(call.stop());
            expectSameBits(out.data(),
                           pool.verified.data() + first_row * pool.classes,
                           batch_rows, pool.classes, first_row,
                           options.workload + " session call " +
                               std::to_string(i));
        }
        phase.stop();

        double wire_p50 = quantile(wire_phase.latencies, 0.50) * 1e6;
        double in_process_p50 = quantile(in_process.latencies, 0.50) * 1e6;
        double session_p50 = quantile(session_calls, 0.50) * 1e6;
        layers["serve.wire_us"] = wire_p50 - in_process_p50;
        layers["serve.batch_wait_us"] = in_process_p50 - session_p50;
        layers["serve.session_us"] = session_p50;
        addCompileLayers(session, layers);
    }
    return result;
}

} // namespace perfbench
