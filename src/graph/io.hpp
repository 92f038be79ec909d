// Edge-list I/O: "n m" header followed by "u v" lines; '#' comments allowed.
//
// Reading runs on one block scanner (`PairScanner`): the stream is read in
// blocks of `kScanBlockBytes`, lines are split with memchr, a '#' cuts the
// rest of its line, and numbers are parsed with std::from_chars.  A line that
// straddles two blocks is carried in a small buffer that keeps only the part
// before its '#', so there is no allocation per line and no copy of the whole
// input.  It runs on any std::istream: files, the v1 snapshot body after its
// header lines, string streams.
//
// Reading is strict; every rejection is a std::runtime_error naming the
// offending line:
//   * a non-empty line (after stripping comments) that does not parse as the
//     header or an edge, or that carries trailing tokens;
//   * a number with a sign character ('+' or '-'), or one that overflows its
//     field (n and the endpoints are 32-bit, m is 64-bit);
//   * an endpoint >= n, or a self-loop "v v";
//   * a mismatch between the declared edge count m and the number of edge
//     lines.
// Numbers are plain decimal digit runs; whitespace is any of " \t\r\v\f", so
// CRLF files read like LF files.  Parallel edges are accepted and merged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace nas::graph {

void write_edge_list(const Graph& g, std::ostream& out);
/// CSR overload: emits the canonical edges (u < v) in the same lexicographic
/// order as the Graph overload, so the bytes are identical for the same
/// adjacency — the v1 snapshot writer runs on this without materializing an
/// adjacency-list Graph first.
void write_edge_list(const Csr& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

/// `line_offset` is added to every reported line number, so callers that
/// embed an edge list after their own header lines (the oracle snapshot
/// format) surface absolute positions in the enclosing file.
[[nodiscard]] Graph read_edge_list(std::istream& in,
                                   std::size_t line_offset = 0);
[[nodiscard]] Graph read_edge_list_file(const std::string& path);

/// Bytes `PairScanner` reads from its stream at a time.
inline constexpr std::size_t kScanBlockBytes = std::size_t{1} << 16;

/// One record line of an "a b" file, as `PairScanner` parsed it.
struct PairLine {
  enum class Status {
    kOk,         ///< two numbers and nothing else
    kMalformed,  ///< fewer than two numbers, or a sign / overflow / junk
    kTrailing,   ///< two numbers followed by a further token
  };
  Status status = Status::kOk;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  /// The first extra token (kTrailing); valid until the next `next()`.
  std::string_view trailing;
  /// Absolute line number (the scanner's line offset included).
  std::size_t line = 0;
};

/// The scanner behind `read_edge_list` and `apps::read_query_file`: yields
/// every line that holds more than whitespace once its '#' comment is cut,
/// parsed as two unsigned decimal numbers.  Callers apply their own field
/// ranges and error texts.
class PairScanner {
 public:
  explicit PairScanner(std::istream& in, std::size_t line_offset = 0);

  /// The next record line, or nullptr at the end of the input.  The
  /// returned record is overwritten by the following call.
  [[nodiscard]] const PairLine* next();

  /// Absolute number of the last line consumed (blank lines included).
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  /// Sets `out` to the next line without its '\n' and its '#' comment;
  /// false at the end of the input.
  bool next_line(std::string_view& out);
  void carry(std::string_view chunk);

  std::istream& in_;
  std::vector<char> block_;
  std::size_t pos_ = 0;  // unread window [pos_, end_) of block_
  std::size_t end_ = 0;
  bool eof_ = false;
  std::string carry_;       // head of a line that straddles blocks
  bool carrying_ = false;   // carry_ holds an unfinished line
  bool carry_cut_ = false;  // carry_ reached a '#': drop the rest of the line
  std::size_t line_;
  PairLine rec_;
};

}  // namespace nas::graph
