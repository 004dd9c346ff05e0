// Small string helpers used by the SQL layer, the tsdb tag model, and the
// feature-family grouping (SPLIT/CONCAT/pattern matching in Appendix C).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace explainit {

/// Splits `s` on `sep`, keeping empty pieces ("a--b" on '-' -> {"a","","b"}).
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII lower/upper-casing (locale independent).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Wildcard match: `many` in the pattern matches any run of characters
/// (including none), `one` matches exactly one, and every other pattern
/// character matches itself. A wildcard stays a wildcard where the text
/// holds the same character. The one matcher behind GlobMatch and LIKE.
bool WildcardMatch(std::string_view pattern, std::string_view text,
                   char many, char one);

/// Glob match supporting '*' (any run, including empty) and '?' (one char).
/// Used for family patterns such as "disk{host=datanode*}".
inline bool GlobMatch(std::string_view pattern, std::string_view text) {
  return WildcardMatch(pattern, text, '*', '?');
}

/// Case-insensitive equality for SQL keywords and identifiers.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace explainit
