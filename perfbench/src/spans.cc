#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

double
toUs(SteadyClock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

} // namespace

std::map<std::string, std::vector<double>>
selfTimesUs(const std::vector<Span> &spans)
{
    using Interval = std::pair<SteadyClock::time_point,
                               SteadyClock::time_point>;
    std::unordered_map<std::uint64_t, std::vector<Interval>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, std::vector<double>> out;
    for (const Span &s : spans) {
        SteadyClock::duration covered{0};
        const auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the child intervals, clipped to the parent.
            auto &kids = it->second;
            std::sort(kids.begin(), kids.end());
            auto cur_start = s.start;
            auto cur_end = s.start;
            for (const auto &[ks, ke] : kids) {
                const auto a = std::clamp(ks, s.start, s.end);
                const auto b = std::clamp(ke, s.start, s.end);
                if (a > cur_end) {
                    covered += cur_end - cur_start;
                    cur_start = a;
                    cur_end = b;
                } else {
                    cur_end = std::max(cur_end, b);
                }
            }
            covered += cur_end - cur_start;
        }
        out[s.name].push_back(toUs(s.end - s.start - covered));
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        return false;
    SteadyClock::time_point origin = SteadyClock::time_point::max();
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"start_us\":" << toUs(s.start - origin)
           << ",\"end_us\":" << toUs(s.end - origin) << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
