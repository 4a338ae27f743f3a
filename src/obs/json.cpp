#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"

namespace scale::obs {

Json::Json(std::uint64_t v) {
  SCALE_CHECK_MSG(v <= static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max()),
                  "counter too large for JSON int");
  value_ = static_cast<std::int64_t>(v);
}

Json::Json(double v) : value_(v) {}

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kInt;
    case 3: return Type::kDouble;
    case 4: return Type::kString;
    case 5: return Type::kArray;
    default: return Type::kObject;
  }
}

bool Json::as_bool() const {
  SCALE_CHECK(is_bool());
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  SCALE_CHECK(type() == Type::kInt);
  return std::get<std::int64_t>(value_);
}

double Json::as_double() const {
  if (type() == Type::kInt)
    return static_cast<double>(std::get<std::int64_t>(value_));
  SCALE_CHECK(type() == Type::kDouble);
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  SCALE_CHECK(is_string());
  return std::get<std::string>(value_);
}

const Json::Array& Json::elements() const {
  SCALE_CHECK(is_array());
  return std::get<Array>(value_);
}

const Json::Object& Json::members() const {
  SCALE_CHECK(is_object());
  return std::get<Object>(value_);
}

void Json::push_back(Json v) {
  SCALE_CHECK_MSG(is_array(), "push_back on non-array Json");
  std::get<Array>(value_).push_back(std::move(v));
}

Json& Json::set(std::string key, Json v) {
  SCALE_CHECK_MSG(is_object(), "set on non-object Json");
  auto& obj = std::get<Object>(value_);
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  return 0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  SCALE_CHECK(res.ec == std::errc());
  return std::string(buf, res.ptr);
}

void Json::write(std::string& out, int indent, int depth) const {
  const bool pretty_mode = indent > 0;
  const auto newline_pad = [&](int d) {
    if (!pretty_mode) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(std::get<std::int64_t>(value_));
      break;
    case Type::kDouble:
      out += json_number(std::get<double>(value_));
      break;
    case Type::kString:
      out += '"';
      out += json_escape(std::get<std::string>(value_));
      out += '"';
      break;
    case Type::kArray: {
      const auto& arr = std::get<Array>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = std::get<Object>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        out += '"';
        out += json_escape(obj[i].first);
        out += "\":";
        if (pretty_mode) out += ' ';
        obj[i].second.write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

namespace {

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    Json v;
    bool ok = value(v);
    skip_ws();
    if (ok && pos_ != text_.size()) {
      fail("trailing characters after document");
      ok = false;
    }
    if (!ok) {
      if (error) *error = error_;
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty())
      error_ = why + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  // Each production parses into `out` and returns false (with error_ set)
  // on malformed input — out-parameters rather than std::optional<Json>
  // keep GCC's -Wmaybe-uninitialized quiet across the variant's members.
  bool value(Json& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      std::string s;
      if (!string(s)) return false;
      out = Json(std::move(s));
      return true;
    }
    if (literal("null")) {
      out = Json(nullptr);
      return true;
    }
    if (literal("true")) {
      out = Json(true);
      return true;
    }
    if (literal("false")) {
      out = Json(false);
      return true;
    }
    return number(out);
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      fail("expected a value");
      return false;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t iv = 0;
      const auto res = std::from_chars(tok.begin(), tok.end(), iv);
      if (res.ec == std::errc() && res.ptr == tok.end()) {
        out = Json(iv);
        return true;
      }
    }
    double dv = 0.0;
    const auto res = std::from_chars(tok.begin(), tok.end(), dv);
    if (res.ec != std::errc() || res.ptr != tok.end()) {
      fail("malformed number");
      return false;
    }
    out = Json(dv);
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return false;
            }
          }
          // Basic-plane code point to UTF-8 (we never emit surrogates).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0u | (cp >> 6));
            out += static_cast<char>(0x80u | (cp & 0x3Fu));
          } else {
            out += static_cast<char>(0xE0u | (cp >> 12));
            out += static_cast<char>(0x80u | ((cp >> 6) & 0x3Fu));
            out += static_cast<char>(0x80u | (cp & 0x3Fu));
          }
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool array(Json& out) {
    if (!consume('[')) {
      fail("expected '['");
      return false;
    }
    out = Json::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      Json v;
      if (!value(v)) return false;
      out.push_back(std::move(v));
      if (consume(',')) continue;
      if (consume(']')) return true;
      fail("expected ',' or ']'");
      return false;
    }
  }

  bool object(Json& out) {
    if (!consume('{')) {
      fail("expected '{'");
      return false;
    }
    out = Json::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      if (!consume(':')) {
        fail("expected ':'");
        return false;
      }
      Json v;
      if (!value(v)) return false;
      out.set(std::move(key), std::move(v));
      if (consume(',')) continue;
      if (consume('}')) return true;
      fail("expected ',' or '}'");
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace scale::obs
