/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line options,
 * timing statistics, the in-memory span recorder and the result line.
 */
#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/** Seconds between two time points. */
double secondsBetween(Clock::time_point start, Clock::time_point end);

/** A wrong output or a broken invariant: the run exits nonzero. */
class CheckFailure : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Parsed command line (see usage() in main.cc). */
struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the run's models, JIT cache and trace output. */
    std::string workDir;
    /**
     * Negative check: add 1.0 to one output of the n-th checked call
     * (0 = the first check against the reference), or -1 for none.
     */
    int64_t corruptCall = -1;
};

/**
 * Counts the output checks of a run and applies the negative-check
 * corruption to the one selected by Options::corruptCall.
 */
class CheckCounter
{
  public:
    explicit CheckCounter(int64_t corrupt_call) : corruptCall_(corrupt_call)
    {}

    /**
     * Corrupt row kCorruptRow (or the last row of a shorter call) of
     * @p outputs if this call is the selected one.
     */
    void next(float *outputs, int64_t num_rows, int32_t num_classes);

    /** The row the negative check corrupts (within one call's rows). */
    static constexpr int64_t kCorruptRow = 7;

  private:
    std::mutex mutex_;
    int64_t corruptCall_;
    int64_t calls_ = 0;
};

/** Throw CheckFailure naming the first row where @p got != @p want. */
void expectSameBits(const float *got, const float *want, int64_t num_rows,
                    int32_t num_classes, int64_t first_row,
                    const std::string &what);

/** The q-quantile (0..1) of @p values, nearest rank; 0 when empty. */
double quantile(std::vector<double> values, double q);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/**
 * Pin the calling thread to the allowed CPU on which @p probe runs
 * fastest; returns the CPU. This host's vCPUs slow down ~1.8x in
 * phases that last up to tens of seconds, independently of each other
 * (see the README), so a single-threaded measurement that stays on one
 * vCPU can spend a whole run in a slow phase.
 */
int pinToFastestCpu(const std::function<void()> &probe);

/** A fixed integer loop of about a millisecond, to probe the CPUs. */
void spinProbe();

/** Peak resident set size of this process in MiB. */
double peakRssMib();

/** One named value of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line the benchmark prints last. */
struct Result
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
};

std::string resultJson(const Result &result);

/**
 * In-memory span recorder around the benchmark's calls into the
 * program. Disabled in the measured (untraced) run, which then pays
 * one branch per call. Spans are written out when the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        /** Case or phase the span belongs to (may be empty). */
        std::string tag;
        Clock::time_point start;
        Clock::time_point end;
        int64_t id = 0;
        int64_t parent = 0;
        int64_t request = 0;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Reserve a span id (0 when disabled). */
    int64_t newId();

    void record(Span span);

    /** Durations in seconds of the spans named @p name with @p tag. */
    std::vector<double> durations(const std::string &name,
                                  const std::string &tag) const;

    /** Write every span as JSON to @p path. */
    void writeJson(const std::string &path,
                   Clock::time_point origin) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    int64_t nextId_ = 1;
};

/**
 * Times one call into the program and, when tracing, records it as a
 * span. Usage: `TimedSpan s(tracer, "Session::predict", tag, parent);
 * call(); double sec = s.stop();`
 */
class TimedSpan
{
  public:
    TimedSpan(Tracer &tracer, const char *name, const std::string &tag,
              int64_t parent = 0, int64_t request = 0);

    /** End the span; returns its duration in seconds. */
    double stop();

    int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    const char *name_;
    std::string tag_;
    int64_t parent_;
    int64_t request_;
    int64_t id_;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
