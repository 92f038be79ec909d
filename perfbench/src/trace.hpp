// In-memory span recorder for the traced replay: one span (name, start,
// end, parent, request) around each call into a layer, written out when the
// run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

class Tracer {
 public:
  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& t, int id) : tracer_(t), id_(id) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Opens a span under the innermost open one; `request` groups the spans
  /// of one served command (-1 outside requests).
  [[nodiscard]] Scope span(const std::string& name, std::int64_t request = -1);

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// One JSON object per span, one per line; a span's self time is its
  /// duration minus that of the spans naming it as parent.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::int64_t request = -1;
  };
  int open(const std::string& name, std::int64_t request);
  void close(int id);

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace bench
