/**
 * @file
 * The span recorder and its Chrome trace-event writer. The file opens
 * in chrome://tracing or Perfetto: one complete ("X") event per timed
 * public call, with its parent span and request id in args.
 */
#include "bench.hpp"

#include <cstdio>

namespace perfbench {

std::int64_t
Tracer::reserve_id()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void
Tracer::record_with_id(std::int64_t id, const std::string &name,
                       Clock::time_point start, Clock::time_point end,
                       std::int64_t parent, std::int64_t request, int tid)
{
    if (!enabled)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{name, start, ms_between(start, end), id, parent, request, tid});
}

std::int64_t
Tracer::record(const std::string &name, Clock::time_point start,
               Clock::time_point end, std::int64_t parent,
               std::int64_t request, int tid)
{
    if (!enabled)
        return 0;
    const std::int64_t id = reserve_id();
    record_with_id(id, name, start, end, parent, request, tid);
    return id;
}

bool
Tracer::write_chrome_json(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"span\": %lld, \"parent\": %lld, \"request\": "
                     "%lld}}%s\n",
                     s.name.c_str(), s.tid, ms_between(origin_, s.start) * 1e3,
                     s.dur_ms * 1e3, static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
