#include "perf.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <numeric>
#include <sstream>

namespace perf {

namespace {

const auto kStart = std::chrono::steady_clock::now();

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - kStart)
        .count();
}

int64_t
Tracer::add(std::string name, double startUs, double endUs,
            int64_t parent, uint64_t query)
{
    if (!on_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), startUs, endUs, parent, query});
    return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] += spans_[i].us();
    for (const Span& s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.us();
    return self;
}

void
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path, std::ios::trunc);
    f.precision(17);
    for (const Span& s : spans_)
        f << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.startUs
          << ",\"end_us\":" << s.endUs << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << "}\n";
    for (const auto& [name, v] : counts_)
        f << "{\"count\":\"" << name << "\",\"value\":" << v << "}\n";
}

void
Tracer::count(const std::string& name, double v)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    counts_[name] += v;
}

double
Tracer::counted(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
}

void
Tracer::load(const std::string& path)
{
    std::ifstream f(path);
    std::string line;
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t base = static_cast<int64_t>(spans_.size());
    while (std::getline(f, line)) {
        char name[128] = {};
        double v = 0;
        if (std::sscanf(line.c_str(), "{\"count\":\"%127[^\"]\",\"value\":%lf}",
                        name, &v) == 2) {
            counts_[name] += v;
            continue;
        }
        Span s;
        long long parent = -1;
        unsigned long long query = 0;
        if (std::sscanf(line.c_str(),
                        "{\"name\":\"%127[^\"]\",\"start_us\":%lf,"
                        "\"end_us\":%lf,\"parent\":%lld,\"query\":%llu}",
                        name, &s.startUs, &s.endUs, &parent,
                        &query) != 5)
            continue;
        s.name = name;
        s.parent = parent < 0 ? -1 : parent + base;
        s.query = query;
        spans_.push_back(std::move(s));
    }
}

Tracer&
tracer()
{
    static Tracer t;
    return t;
}

double
SpanScope::finish()
{
    if (end_ < 0) {
        end_ = nowUs();
        tracer().add(name_, start_, end_, parent_, query_);
    }
    return end_ - start_;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t i = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    i = std::clamp<size_t>(i, 1, v.size());
    return v[i - 1];
}

double
cost(std::vector<double> repetitions)
{
    if (repetitions.empty())
        return 0;
    std::sort(repetitions.begin(), repetitions.end());
    const size_t k = std::min<size_t>(3, repetitions.size());
    return std::accumulate(repetitions.begin(), repetitions.begin() + k,
                           0.0) /
           static_cast<double>(k);
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

uint64_t
fnv(const std::string& s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
Report::add(const std::string& name, double value,
            const std::string& unit, uint64_t samples)
{
    entries_.push_back({name, value, unit, samples});
}

bool
Report::has(const std::string& name) const
{
    for (const Entry& e : entries_)
        if (e.name == name)
            return true;
    return false;
}

void
Report::print() const
{
    for (const Entry& e : entries_)
        std::printf("metric %-32s %14.6g %-8s n=%" PRIu64 "\n",
                    e.name.c_str(), e.value, e.unit.c_str(), e.samples);
}

std::string
Report::json(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<Metric>& keep) const
{
    std::ostringstream os;
    os.precision(10);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : keep) {
        for (const Entry& e : entries_) {
            if (e.name != m.name)
                continue;
            os << (first ? "" : ", ") << '"' << e.name
               << "\": {\"value\": "
               << (std::isfinite(e.value) ? e.value : 0.0)
               << ", \"unit\": \"" << e.unit << "\"}";
            first = false;
            break;
        }
    }
    os << "}}";
    return os.str();
}

const std::vector<std::string>&
verbs()
{
    static const std::vector<std::string> v = {"cf", "values", "addr",
                                               "slice", "races"};
    return v;
}

const std::vector<Metric>&
endToEndMetrics()
{
    static const std::vector<Metric> v = {
        {"setup_s", "s"},       {"peak_rss_mb", "MB"},
        {"artifact.bytes_per_stmt", "B"}, {"ops_per_s", "1/s"},
        {"op_p50_us", "us"},    {"op_max_us", "us"}};
    return v;
}

const std::vector<Metric>&
perLayerMetrics()
{
    static const std::vector<Metric> v = [] {
        std::vector<Metric> m = {
            {"lang.compile_ms", "ms"},
            {"analysis.moduleanalysis_ms", "ms"},
            {"interp.mstmts_per_s", "Mstmt/s"},
            {"core.builder.s", "s"},
            {"core.compressed.s", "s"},
            {"core.compressed.streams", "count"},
            {"codec.encode.mvals_per_s", "Mval/s"},
            {"codec.bytes_per_value", "B/value"},
            {"wetio.save_ms", "ms"},
            {"wetio.load_ms", "ms"},
            {"wetio.bytes", "B"},
            {"codec.fwd_mvals_per_s", "Mval/s"},
            {"codec.bwd_mvals_per_s", "Mval/s"},
            {"codec.position_ms", "ms"},
            {"codec.at_random_us", "us"},
            {"analysis.staticdep.build_ms", "ms"},
            {"core.session.scope_us", "us"},
            {"core.cfquery.us", "us"},
            {"core.valuequery.us", "us"},
            {"core.addrquery.us", "us"},
            {"core.cursorslicer.us", "us"},
            {"slice.values_decoded", "count"},
            {"slice.streams_opened", "count"},
            {"slice.cursor_restarts", "count"},
            {"slice.decoded_per_item", "count"},
            {"analysis.racedetect.us", "us"},
            {"races.values_decoded", "count"},
        };
        const std::pair<const char*, const char*> perVerb[] = {
            {"cache.lookups", "count"},  {"cache.hit_ratio", "ratio"},
            {"cache.evictions", "count"}, {"cache.rescans", "count"},
            {"serve.parse_us", "us"},    {"serve.render_us", "us"},
            {"serve.wire_us", "us"}};
        for (const auto& [layer, unit] : perVerb)
            for (const std::string& verb : verbs())
                m.push_back({std::string(layer) + "." + verb, unit});
        m.push_back({"governor.trip_frac", "fraction"});
        m.push_back({"trace.overhead_pct", "%"});
        m.push_back({"accounting.worst_dev_pct", "%"});
        return m;
    }();
    return v;
}

} // namespace perf
