#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

void
CheckCounter::next(float *outputs, int64_t num_rows, int32_t num_classes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (calls_++ == corruptCall_ && num_rows > 0)
        outputs[std::min(kCorruptRow, num_rows - 1) * num_classes] += 1.0f;
}

void
expectSameBits(const float *got, const float *want, int64_t num_rows,
               int32_t num_classes, int64_t first_row,
               const std::string &what)
{
    size_t bytes = static_cast<size_t>(num_rows) * num_classes *
                   sizeof(float);
    if (std::memcmp(got, want, bytes) == 0)
        return;
    for (int64_t r = 0; r < num_rows; ++r) {
        for (int32_t k = 0; k < num_classes; ++k) {
            size_t i = static_cast<size_t>(r) * num_classes + k;
            if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
                char message[256];
                std::snprintf(message, sizeof(message),
                              "%s: row %lld class %d is %.9g, the "
                              "verified output is %.9g",
                              what.c_str(),
                              static_cast<long long>(first_row + r), k,
                              static_cast<double>(got[i]),
                              static_cast<double>(want[i]));
                throw CheckFailure(message);
            }
        }
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    size_t index = rank == 0 ? 0 : rank - 1;
    index = std::min(index, values.size() - 1);
    std::nth_element(values.begin(), values.begin() + index, values.end());
    return values[index];
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

int
pinToFastestCpu(const std::function<void()> &probe)
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        sched_getaffinity(0, sizeof(set), &set);
        return set;
    }();
    int best = -1;
    double best_seconds = 0.0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        Clock::time_point start = Clock::now();
        probe();
        double seconds = secondsSince(start);
        if (best < 0 || seconds < best_seconds) {
            best = cpu;
            best_seconds = seconds;
        }
    }
    if (best >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(best, &one);
        sched_setaffinity(0, sizeof(one), &one);
    }
    return best;
}

void
spinProbe()
{
    volatile uint64_t sink = 0;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 400000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    (void)sink;
}

double
peakRssMib()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
resultJson(const Result &result)
{
    std::ostringstream out;
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &metric = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        out << (i ? ", " : "") << '"' << metric.name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metric.unit << "\"}";
    }
    out << "}}";
    return out.str();
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

int64_t
Tracer::newId()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<double>
Tracer::durations(const std::string &name, const std::string &tag) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> seconds;
    for (const Span &span : spans_) {
        if (span.name == name && span.tag == tag)
            seconds.push_back(secondsBetween(span.start, span.end));
    }
    return seconds;
}

void
Tracer::writeJson(const std::string &path, Clock::time_point origin) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char times[96];
        std::snprintf(times, sizeof(times),
                      "\"start_us\": %.3f, \"end_us\": %.3f",
                      secondsBetween(origin, span.start) * 1e6,
                      secondsBetween(origin, span.end) * 1e6);
        out << (i ? ",\n" : "") << "{\"name\": \"" << span.name
            << "\", \"tag\": \"" << span.tag << "\", " << times
            << ", \"id\": " << span.id << ", \"parent\": " << span.parent
            << ", \"request\": " << span.request << '}';
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
}

TimedSpan::TimedSpan(Tracer &tracer, const char *name,
                     const std::string &tag, int64_t parent,
                     int64_t request)
    : tracer_(tracer), name_(name), tag_(tag), parent_(parent),
      request_(request), id_(tracer.newId()), start_(Clock::now())
{}

double
TimedSpan::stop()
{
    Clock::time_point end = Clock::now();
    if (tracer_.enabled()) {
        tracer_.record(
            {name_, tag_, start_, end, id_, parent_, request_});
    }
    return secondsBetween(start_, end);
}

} // namespace perfbench
