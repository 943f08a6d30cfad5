#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

SpanRecorder&
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

int
SpanRecorder::open(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_s = nowSeconds();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end_s = nowSeconds();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

double
SpanRecorder::total(const std::string& name) const
{
    double sum = 0.0;
    for (const Span& s : spans_)
        if (s.name == name)
            sum += s.end_s - s.start_s;
    return sum;
}

std::size_t
SpanRecorder::count(const std::string& name) const
{
    std::size_t n = 0;
    for (const Span& s : spans_)
        n += s.name == name;
    return n;
}

double
SpanRecorder::mean(const std::string& name) const
{
    const std::size_t n = count(name);
    return n ? total(name) / static_cast<double>(n) : 0.0;
}

bool
SpanRecorder::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char line[256];
        std::snprintf(line, sizeof(line),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}",
                      s.name.c_str(), (s.start_s - origin) * 1e6,
                      (s.end_s - s.start_s) * 1e6, i, s.parent);
        out << line << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
