// Tag sets: the key-value categorical attributes attached to every metric
// (§2: "an event has an associated timestamp, a list of key-value
// categorical attributes, and a key-value list of numerical measurements").
#pragma once

#include <map>
#include <string>
#include <vector>

namespace explainit::tsdb {

/// An ordered key -> value attribute set, e.g.
/// {host=datanode-1, type=read_latency}.
class TagSet {
 public:
  TagSet() = default;
  TagSet(std::initializer_list<std::pair<const std::string, std::string>> kv)
      : tags_(kv) {}
  explicit TagSet(std::map<std::string, std::string> tags)
      : tags_(std::move(tags)) {}

  /// Value for a key, or empty string when absent.
  const std::string& Get(const std::string& key) const;
  bool Has(const std::string& key) const { return tags_.count(key) > 0; }
  void Set(std::string key, std::string value) {
    tags_[std::move(key)] = std::move(value);
  }

  size_t size() const { return tags_.size(); }
  bool empty() const { return tags_.empty(); }
  const std::map<std::string, std::string>& entries() const { return tags_; }

  /// Canonical display encoding "k1=v1,k2=v2" (keys sorted). Separators
  /// are not escaped, so distinct tag sets can encode alike: compare
  /// TagSets, not encodings, for identity.
  std::string Encode() const;

  /// True when every key in `filter` is present with a glob-matching value
  /// (filter values may contain '*' / '?').
  bool Matches(const TagSet& filter) const;

  bool operator==(const TagSet& other) const = default;
  bool operator<(const TagSet& other) const { return tags_ < other.tags_; }

 private:
  std::map<std::string, std::string> tags_;
};

}  // namespace explainit::tsdb
