/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line options,
 * the in-memory span recorder of the traced run, sample statistics,
 * and the metric report every workload fills in.
 */
#ifndef WETPERF_PERF_H
#define WETPERF_PERF_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perf {

struct Options
{
    std::string mode;     //!< "prep" or "measure"
    std::string workload; //!< build | interactive | analysis | bounded
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string work; //!< working directory: artifacts, lists, results
};

/** Microseconds on the steady clock since the process started. */
double nowUs();

/**
 * In-memory span recorder of the traced run. A span carries its name,
 * start and end, its parent span (-1 for a root) and the query id it
 * belongs to (0 outside queries). Thread-safe; inactive recorders
 * cost one branch per call.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int64_t parent = -1;
        uint64_t query = 0;
        double us() const { return endUs - startUs; }
    };

    void enable() { on_ = true; }
    bool on() const { return on_; }

    /** Record a finished span; returns its id (-1 when off). */
    int64_t add(std::string name, double startUs, double endUs,
                int64_t parent = -1, uint64_t query = 0);

    /** All spans recorded so far (copy; call after the run). */
    std::vector<Span> spans() const;

    /** Self time of every span: duration minus its children's. */
    std::vector<double> selfTimes() const;

    /** Write every span as JSON lines to @p path. */
    void write(const std::string& path) const;

    /** Add @p v to the named count (work done at a span boundary). */
    void count(const std::string& name, double v);
    /** Count value (0 when never counted). */
    double counted(const std::string& name) const;

    /** Append spans and counts read back from a file write()
     *  produced (the preparation child's construction spans). */
    void load(const std::string& path);

  private:
    bool on_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;               //!< guarded by mu_
    std::map<std::string, double> counts_;  //!< guarded by mu_
};

Tracer& tracer();

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    SpanScope(const char* name, int64_t parent = -1,
              uint64_t query = 0)
        : name_(name), parent_(parent), query_(query),
          start_(nowUs())
    {
    }
    ~SpanScope() { finish(); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    /** End the span now; returns its duration in microseconds. */
    double finish();

  private:
    const char* name_;
    int64_t parent_;
    uint64_t query_;
    double start_;
    double end_ = -1;
};

/** Quantile @p q in [0,1] of @p v (nearest rank; 0 when empty). */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}
double sum(const std::vector<double>& v);

/**
 * Cost of one operation (a served line, or one program's
 * construction): the mean of its three fastest timed repetitions in a
 * run, or of all of them when it ran fewer times. The host adds delay
 * in phases that last from seconds to minutes; a fixed loop's median
 * over a 10 s window moves by up to 2.6x between windows, its minimum
 * by about 10%. Every repetition does the same work, so the fastest
 * are the ones the host delayed least; three of them steady the
 * estimate against a single lucky one. The gated timings are built
 * from these costs; wall-clock medians are printed beside them.
 */
double cost(std::vector<double> repetitions);

/** FNV-1a over @p s (answer fingerprints). */
uint64_t fnv(const std::string& s);

/** Peak resident set of this process, in MB (VmHWM). */
double peakRssMb();

/** Return freed heap to the system and restart the peak at the
 *  current resident set, so that set-up transients do not count. */
void resetPeakRss();

/** A metric name with its unit, as BENCHMARK.json lists it. */
struct Metric
{
    std::string name;
    std::string unit;
};

/**
 * Metrics of one run, in print order. Every value is printed on its
 * own line with its unit and sample count, and the requested set goes
 * into the final JSON line.
 */
class Report
{
  public:
    void add(const std::string& name, double value,
             const std::string& unit, uint64_t samples);
    /** Print one human-readable line per metric. */
    void print() const;
    /** The final result line; only metrics in @p keep appear. */
    std::string json(bool correct, uint64_t attempted,
                     uint64_t failed,
                     const std::vector<Metric>& keep) const;
    bool has(const std::string& name) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        uint64_t samples;
    };
    std::vector<Entry> entries_;
};

/** Names of the end-to-end and per-layer metrics (BENCHMARK.json). */
const std::vector<Metric>& endToEndMetrics();
const std::vector<Metric>& perLayerMetrics();

/** Verbs the serving workloads replay, in report order. */
const std::vector<std::string>& verbs();

/** Outcome of one run, shared by all workloads. */
struct Outcome
{
    Report report;
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Free-form facts for the host/workload fingerprint line. */
    std::map<std::string, std::string> facts;
};

// Workload entry points.
int prepServing(const Options& opt);
void runBuild(const Options& opt, Outcome& out);
void runServing(const Options& opt, Outcome& out);

} // namespace perf

#endif // WETPERF_PERF_H
