#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <stdexcept>

namespace nas::graph {

namespace {

constexpr std::uint64_t kMaxVertex = std::numeric_limits<Vertex>::max();

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

const char* skip_space(const char* p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  return p;
}

/// Parses the unsigned decimal number after the whitespace at `p`; nullptr
/// when there is none (a sign, any other character, the end) or it
/// overflows.
const char* parse_number(const char* p, const char* end,
                         std::uint64_t& value) {
  p = skip_space(p, end);
  const auto [next, ec] = std::from_chars(p, end, value);
  return ec == std::errc{} ? next : nullptr;
}

std::string_view cut_comment(std::string_view line) {
  return line.substr(0, line.find('#'));
}

/// A token as an error message shows it: bytes outside printable ASCII as
/// \xNN (a NUL would cut what() short of its line number), and at most 64
/// bytes of it.
std::string printable(std::string_view token) {
  constexpr std::size_t kMaxShown = 64;
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : token.substr(0, kMaxShown)) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    }
  }
  if (token.size() > kMaxShown) out += "...";
  return out;
}

}  // namespace

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << '\n';
}

void write_edge_list(const Csr& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Vertex v : g.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_edge_list_file: cannot open " + path);
  write_edge_list(g, out);
}

PairScanner::PairScanner(std::istream& in, std::size_t line_offset)
    : in_(in), block_(kScanBlockBytes), line_(line_offset) {}

void PairScanner::carry(std::string_view chunk) {
  if (!carrying_) {
    carry_.clear();
    carrying_ = true;
    carry_cut_ = false;
  }
  if (carry_cut_) return;
  const std::string_view kept = cut_comment(chunk);
  carry_.append(kept);
  carry_cut_ = kept.size() != chunk.size();
}

bool PairScanner::next_line(std::string_view& out) {
  for (;;) {
    if (pos_ == end_) {
      if (eof_) {
        if (!carrying_) return false;
        carrying_ = false;
        out = carry_;
        return true;
      }
      in_.read(block_.data(), static_cast<std::streamsize>(block_.size()));
      end_ = static_cast<std::size_t>(in_.gcount());
      pos_ = 0;
      eof_ = end_ < block_.size();
      continue;
    }
    const char* start = block_.data() + pos_;
    const std::size_t avail = end_ - pos_;
    const auto* newline =
        static_cast<const char*>(std::memchr(start, '\n', avail));
    if (newline == nullptr) {
      carry({start, avail});
      pos_ = end_;
      continue;
    }
    const std::string_view line(start,
                                static_cast<std::size_t>(newline - start));
    pos_ += line.size() + 1;
    if (!carrying_) {
      out = cut_comment(line);
      return true;
    }
    carry(line);
    carrying_ = false;
    out = carry_;
    return true;
  }
}

const PairLine* PairScanner::next() {
  std::string_view body;
  while (next_line(body)) {
    ++line_;
    const char* end = body.data() + body.size();
    const char* p = skip_space(body.data(), end);
    if (p == end) continue;
    rec_ = PairLine{};
    rec_.line = line_;
    p = parse_number(p, end, rec_.a);
    if (p != nullptr) p = parse_number(p, end, rec_.b);
    if (p == nullptr) {
      rec_.status = PairLine::Status::kMalformed;
      return &rec_;
    }
    p = skip_space(p, end);
    if (p != end) {
      const char* token_end = p;
      while (token_end != end && !is_space(*token_end)) ++token_end;
      rec_.status = PairLine::Status::kTrailing;
      rec_.trailing = {p, static_cast<std::size_t>(token_end - p)};
    }
    return &rec_;
  }
  return nullptr;
}

Graph read_edge_list(std::istream& in, std::size_t line_offset) {
  using Status = PairLine::Status;
  PairScanner scan(in, line_offset);
  Vertex n = 0;
  std::size_t m = 0;
  bool have_header = false;
  std::vector<Edge> edges;
  const auto fail = [](const std::string& what, std::size_t line) {
    throw std::runtime_error("read_edge_list: " + what + " at line " +
                             std::to_string(line));
  };
  while (const PairLine* rec = scan.next()) {
    if (!have_header) {
      if (rec->status == Status::kMalformed || rec->a > kMaxVertex) {
        fail("malformed header (expected 'n m')", rec->line);
      }
      if (rec->status == Status::kTrailing) {
        fail("trailing token '" + printable(rec->trailing) + "' in header",
             rec->line);
      }
      n = static_cast<Vertex>(rec->a);
      m = rec->b;
      have_header = true;
      // Don't trust a possibly-corrupt m for the up-front reservation: a
      // bogus header must fail via the line-numbered mismatch checks below,
      // not with std::bad_alloc on a multi-TB reserve.
      edges.reserve(std::min<std::size_t>(m, std::size_t{1} << 20));
      continue;
    }
    if (rec->status == Status::kMalformed || rec->a > kMaxVertex ||
        rec->b > kMaxVertex) {
      fail("malformed edge line (expected 'u v')", rec->line);
    }
    if (rec->status == Status::kTrailing) {
      fail("trailing token '" + printable(rec->trailing) + "' in edge line",
           rec->line);
    }
    if (edges.size() == m) {
      fail("more edge lines than the declared m=" + std::to_string(m),
           rec->line);
    }
    const auto u = static_cast<Vertex>(rec->a);
    const auto v = static_cast<Vertex>(rec->b);
    if (u >= n || v >= n) {
      fail("endpoint " + std::to_string(std::max(u, v)) +
               " out of range for n=" + std::to_string(n),
           rec->line);
    }
    if (u == v) fail("self-loop on vertex " + std::to_string(u), rec->line);
    edges.emplace_back(u, v);
  }
  if (!have_header) {
    throw std::runtime_error("read_edge_list: missing header (after line " +
                             std::to_string(scan.line()) + ")");
  }
  if (edges.size() != m) {
    throw std::runtime_error(
        "read_edge_list: header declares m=" + std::to_string(m) +
        " edges but the file contains " + std::to_string(edges.size()) +
        " (after line " + std::to_string(scan.line()) + ")");
  }
  return Graph::from_edges(n, edges);
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list_file: cannot open " + path);
  return read_edge_list(in);
}

}  // namespace nas::graph
