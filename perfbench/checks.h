// Correctness checks of the perfbench workloads.
//
// Every value the benchmark writes encodes its key (EncodeValue), so a read
// can be checked without a copy of the index. Scan results are checked
// against a sorted model of the preloaded keys, which the benchmark keeps
// apart from the index under test. Each check returns false and explains
// itself in *why; checks_test.cc shows that each one fails when a value or
// a row is corrupted.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace perfbench {

/// Low bits of a value that carry a write sequence number; the rest tag the
/// key the value was written for.
constexpr int kSeqBits = 20;

inline uint64_t KeyTag(uint64_t key) {
  return fptree::Mix64(key ^ 0x6a09e667f3bcc909ULL) >> kSeqBits;
}
inline uint64_t KeyTag(std::string_view key) {
  return fptree::HashBytes(key.data(), key.size()) >> kSeqBits;
}

template <typename K>
uint64_t EncodeValue(const K& key, uint64_t seq) {
  return (KeyTag(key) << kSeqBits) | (seq & ((uint64_t{1} << kSeqBits) - 1));
}

template <typename K>
bool ValueMatches(const K& key, uint64_t value) {
  return (value >> kSeqBits) == KeyTag(key);
}

inline std::string Show(uint64_t key) { return std::to_string(key); }
inline std::string Show(std::string_view key) {
  return "'" + std::string(key) + "'";
}

/// A Get of a key that must be present: it hits and carries its own key.
template <typename K>
bool CheckGet(const K& key, bool found, uint64_t value, std::string* why) {
  if (!found) {
    *why = "get " + Show(key) + " missed a key that must be present";
    return false;
  }
  if (!ValueMatches(key, value)) {
    *why = "get " + Show(key) + " returned value " + std::to_string(value) +
           " written for another key";
    return false;
  }
  return true;
}

/// Properties every scan must have: rows at or after `start`, strictly
/// ascending, each value written for its own key, at most `limit` rows.
template <typename K, typename Row>
bool CheckScanOrdered(const K& start, const std::vector<Row>& rows,
                      size_t limit, std::string* why) {
  if (rows.size() > limit) {
    *why = "scan from " + Show(start) + " returned " +
           std::to_string(rows.size()) + " rows, limit " +
           std::to_string(limit);
    return false;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const K row_key = rows[i].first;
    if (row_key < start) {
      *why = "scan from " + Show(start) + " returned " + Show(row_key) +
             " before its start";
      return false;
    }
    if (i > 0 && !(K(rows[i - 1].first) < row_key)) {
      *why = "scan from " + Show(start) + " is not strictly ascending at row " +
             std::to_string(i);
      return false;
    }
    if (!ValueMatches(row_key, rows[i].second)) {
      *why = "scan from " + Show(start) + " row " + Show(row_key) +
             " carries a value written for another key";
      return false;
    }
  }
  return true;
}

/// On a key set that does not change while scans run: the rows are exactly
/// the next `limit` keys of `model` (sorted) at or after `start`.
template <typename K, typename Row>
bool CheckScanExact(const K& start, const std::vector<Row>& rows,
                    size_t limit, const std::vector<K>& model,
                    std::string* why) {
  if (!CheckScanOrdered(start, rows, limit, why)) return false;
  auto it = std::lower_bound(model.begin(), model.end(), start);
  size_t want = std::min<size_t>(limit, model.end() - it);
  if (rows.size() != want) {
    *why = "scan from " + Show(start) + " returned " +
           std::to_string(rows.size()) + " rows, expected " +
           std::to_string(want);
    return false;
  }
  for (size_t i = 0; i < want; ++i, ++it) {
    if (!(K(rows[i].first) == *it)) {
      *why = "scan from " + Show(start) + " row " + std::to_string(i) +
             " is " + Show(K(rows[i].first)) + ", expected " + Show(*it);
      return false;
    }
  }
  return true;
}

/// On a key set that only grows: every model key between `start` and the
/// last row appears among the rows, and a short scan left out no model key
/// after its last row.
template <typename K, typename Row>
bool CheckScanCovers(const K& start, const std::vector<Row>& rows,
                     size_t limit, const std::vector<K>& model,
                     std::string* why) {
  if (!CheckScanOrdered(start, rows, limit, why)) return false;
  auto it = std::lower_bound(model.begin(), model.end(), start);
  size_t r = 0;
  for (; it != model.end(); ++it) {
    if (!rows.empty() && K(rows.back().first) < *it) break;
    while (r < rows.size() && K(rows[r].first) < *it) ++r;
    if (r == rows.size() || !(K(rows[r].first) == *it)) {
      *why = "scan from " + Show(start) + " skipped present key " + Show(*it);
      return false;
    }
  }
  if (rows.size() < limit && it != model.end()) {
    *why = "scan from " + Show(start) + " stopped after " +
           std::to_string(rows.size()) + " rows before present key " +
           Show(*it);
    return false;
  }
  return true;
}

/// Size() after a run equals the preloaded keys plus acknowledged inserts.
inline bool CheckSize(size_t actual, size_t expected, const char* when,
                      std::string* why) {
  if (actual == expected) return true;
  *why = std::string("Size() ") + when + " is " + std::to_string(actual) +
         ", expected " + std::to_string(expected);
  return false;
}

}  // namespace perfbench
