#include "zone/master_file.h"

#include <string>

#include "util/strings.h"

namespace rootless::zone {

using dns::Name;
using dns::ResourceRecord;
using dns::RRClass;
using dns::RRType;
using util::Error;
using util::Result;

namespace {

// One token of a logical line. `quoted` distinguishes "" TXT strings from
// bare words.
struct Token {
  std::string text;
  bool quoted = false;
};

// Tokenizes master-file text into logical lines: parentheses join physical
// lines, ';' starts a comment, quotes group. Returns one token list per
// logical line along with whether the line started at column 0 (an owner
// name is present only in that case).
struct LogicalLine {
  std::vector<Token> tokens;
  bool starts_at_column0 = false;
  std::size_t line_number = 0;  // first physical line, 1-based
};

// Text that ends inside parentheses or a quoted string is truncated; every
// other failure is corrupted, whatever a called parser named it.
Error Truncated(const char* what) { return Error(ErrorCode::kTruncated, what); }
Error Corrupted(const std::string& what) {
  return Error(ErrorCode::kCorrupted, what);
}

Result<std::vector<LogicalLine>> Tokenize(std::string_view text) {
  std::vector<LogicalLine> lines;
  LogicalLine current;
  int paren_depth = 0;
  std::size_t line_number = 1;
  bool line_has_content = false;
  bool at_line_start = true;

  std::size_t i = 0;
  auto flush_line = [&]() -> util::Status {
    if (paren_depth > 0) return util::Status::Ok();  // still inside parens
    if (!current.tokens.empty()) lines.push_back(std::move(current));
    current = LogicalLine{};
    line_has_content = false;
    return util::Status::Ok();
  };

  while (i <= text.size()) {
    const char c = i < text.size() ? text[i] : '\n';
    if (c == ';') {  // comment to end of physical line
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (c == '\n') {
      ROOTLESS_RETURN_IF_ERROR(flush_line());
      ++line_number;
      at_line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      at_line_start = false;
      ++i;
      continue;
    }
    if (c == '(') {
      ++paren_depth;
      at_line_start = false;
      ++i;
      continue;
    }
    if (c == ')') {
      if (paren_depth == 0) return Corrupted("master: unbalanced ')'");
      --paren_depth;
      ++i;
      continue;
    }
    // Start of a token.
    if (!line_has_content) {
      current.starts_at_column0 = at_line_start;
      current.line_number = line_number;
      line_has_content = true;
    }
    at_line_start = false;
    Token token;
    if (c == '"') {
      token.quoted = true;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) {
          token.text.push_back(text[i + 1]);
          i += 2;
        } else {
          if (text[i] == '\n') return Corrupted("master: newline in quote");
          token.text.push_back(text[i]);
          ++i;
        }
      }
      if (i >= text.size()) return Truncated("master: unterminated quote");
      ++i;  // closing quote
    } else {
      while (i < text.size() && text[i] != ' ' && text[i] != '\t' &&
             text[i] != '\n' && text[i] != '\r' && text[i] != ';' &&
             text[i] != '(' && text[i] != ')') {
        if (text[i] == '\\' && i + 1 < text.size()) {
          token.text.push_back(text[i]);
          token.text.push_back(text[i + 1]);
          i += 2;
        } else {
          token.text.push_back(text[i]);
          ++i;
        }
      }
    }
    current.tokens.push_back(std::move(token));
  }
  if (paren_depth != 0) return Truncated("master: unbalanced '('");
  return lines;
}

Result<Name> ParseOwner(std::string_view text, const Name& origin) {
  if (text == "@") return origin;
  auto name = Name::Parse(text);
  if (!name.ok()) return name;
  if (!text.empty() && text.back() != '.') return name->Concat(origin);
  return name;
}

bool LooksLikeTtl(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

Result<std::vector<ResourceRecord>> ParseMasterFile(std::string_view text,
                                                    const ParseOptions& options) {
  auto lines = Tokenize(text);
  if (!lines.ok()) return lines.error();

  std::vector<ResourceRecord> records;
  Name origin = options.origin;
  std::uint32_t default_ttl = options.default_ttl;
  Name last_owner = origin;
  bool have_owner = false;

  for (const auto& line : lines.value()) {
    const auto& tokens = line.tokens;
    auto fail = [&](const std::string& what) {
      return Corrupted("master:" + std::to_string(line.line_number) + ": " +
                       what);
    };

    // Directives.
    if (!tokens.empty() && tokens[0].text == "$ORIGIN") {
      if (tokens.size() != 2) return fail("$ORIGIN expects one argument");
      auto n = Name::Parse(tokens[1].text);
      if (!n.ok()) return fail(n.error().message());
      origin = std::move(*n);
      continue;
    }
    if (!tokens.empty() && tokens[0].text == "$TTL") {
      if (tokens.size() != 2) return fail("$TTL expects one argument");
      auto v = util::ParseU32(tokens[1].text);
      if (!v.ok()) return fail("bad $TTL value");
      default_ttl = *v;
      continue;
    }
    if (!tokens.empty() && tokens[0].text.starts_with("$")) {
      return fail("unsupported directive " + tokens[0].text);
    }

    // Record line: [owner] [ttl|class ...] type rdata...
    std::size_t idx = 0;
    ResourceRecord rr;
    if (line.starts_at_column0) {
      if (tokens.empty()) continue;
      auto owner = ParseOwner(tokens[idx].text, origin);
      if (!owner.ok()) return fail(owner.error().message());
      rr.name = std::move(*owner);
      last_owner = rr.name;
      have_owner = true;
      ++idx;
    } else {
      if (!have_owner && origin.is_root() && options.origin.is_root()) {
        // Continuation with no prior owner: inherit origin (may be root).
      }
      rr.name = last_owner;
    }

    // TTL and class may appear in either order, both optional.
    rr.ttl = default_ttl;
    rr.rrclass = RRClass::kIN;
    bool saw_ttl = false, saw_class = false;
    while (idx < tokens.size()) {
      const std::string& t = tokens[idx].text;
      if (!saw_ttl && LooksLikeTtl(t)) {
        auto v = util::ParseU32(t);
        if (!v.ok()) return fail("bad TTL");
        rr.ttl = *v;
        saw_ttl = true;
        ++idx;
        continue;
      }
      if (!saw_class) {
        auto cls = dns::RRClassFromString(t);
        if (cls.ok()) {
          rr.rrclass = *cls;
          saw_class = true;
          ++idx;
          continue;
        }
      }
      break;
    }

    if (idx >= tokens.size()) return fail("missing RR type");
    auto type = dns::RRTypeFromString(tokens[idx].text);
    if (!type.ok()) return fail(type.error().message());
    rr.type = *type;
    ++idx;

    std::vector<std::string_view> fields;
    fields.reserve(tokens.size() - idx);
    for (std::size_t k = idx; k < tokens.size(); ++k) {
      fields.push_back(tokens[k].text);
    }
    auto rdata = dns::RdataFromFields(rr.type, fields, origin);
    if (!rdata.ok()) return fail(rdata.error().message());
    rr.rdata = std::move(*rdata);
    records.push_back(std::move(rr));
  }
  return records;
}

std::string SerializeMasterFile(const std::vector<ResourceRecord>& records) {
  std::string out;
  for (const auto& rr : records) {
    out += rr.ToString();
    out.push_back('\n');
  }
  return out;
}

}  // namespace rootless::zone
