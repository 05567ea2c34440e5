#include "src/serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace rap::serve {
namespace {

[[noreturn]] void type_error(const char* expected) {
  throw std::invalid_argument(std::string("json value is not ") + expected);
}

/// Recursive-descent parser over a string_view with an explicit cursor.
/// Errors carry the byte offset so malformed requests are debuggable.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("json parse error at offset " +
                                std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  /// Bumps the container depth for one object/array frame; parse depth is
  /// bounded by kMaxJsonDepth so adversarial nesting cannot exhaust the
  /// call stack.
  class DepthFrame {
   public:
    explicit DepthFrame(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxJsonDepth) {
        parser_.fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                     " levels");
      }
    }
    ~DepthFrame() { --parser_.depth_; }
    DepthFrame(const DepthFrame&) = delete;
    DepthFrame& operator=(const DepthFrame&) = delete;

   private:
    Parser& parser_;
  };

  JsonValue parse_object() {
    const DepthFrame frame(*this);
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.insert_or_assign(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(object));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthFrame frame(*this);
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(array));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape character");
      }
    }
  }

  std::string parse_unicode_escape() {
    // \uXXXX only; surrogate pairs are rejected rather than silently
    // mangled — the serve grammar never needs astral-plane text.
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4U;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      fail("surrogate \\u escapes are not supported");
    }
    std::string out;
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    } else {
      out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
      out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
      out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      fail("invalid number '" + token + "'");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void append_json(const JsonValue& value, std::string& out);

void append_quoted(std::string_view text, std::string& out) {
  out.push_back('"');
  for (const char c : text) {
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
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(double value, std::string& out) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // Integer fast path keeps ids and counters readable ("42", not "42.0").
  const double rounded = std::nearbyint(value);
  if (rounded == value && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    out += buffer;
    return;
  }
  // Shortest representation that round-trips: try increasing precision.
  char buffer[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    char* end = nullptr;
    if (std::strtod(buffer, &end) == value) break;
  }
  out += buffer;
}

void append_json(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    append_number(value.as_number(), out);
  } else if (value.is_string()) {
    append_quoted(value.as_string(), out);
  } else if (value.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const JsonValue& item : value.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      append_json(item, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, item] : value.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      append_quoted(key, out);
      out.push_back(':');
      append_json(item, out);
    }
    out.push_back('}');
  }
}

}  // namespace

bool JsonValue::as_bool() const {
  if (const bool* value = std::get_if<bool>(&value_)) return *value;
  type_error("a bool");
}

double JsonValue::as_number() const {
  if (const double* value = std::get_if<double>(&value_)) return *value;
  type_error("a number");
}

const std::string& JsonValue::as_string() const {
  if (const std::string* value = std::get_if<std::string>(&value_)) {
    return *value;
  }
  type_error("a string");
}

const JsonValue::Array& JsonValue::as_array() const {
  if (const Array* value = std::get_if<Array>(&value_)) return *value;
  type_error("an array");
}

const JsonValue::Object& JsonValue::as_object() const {
  if (const Object* value = std::get_if<Object>(&value_)) return *value;
  type_error("an object");
}

JsonValue::Object& JsonValue::as_object() {
  if (Object* value = std::get_if<Object>(&value_)) return *value;
  type_error("an object");
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

std::string to_json(const JsonValue& value) {
  std::string out;
  append_json(value, out);
  return out;
}

const JsonValue* find_field(const JsonValue::Object& object,
                            std::string_view key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double require_number(const JsonValue::Object& object, std::string_view key) {
  const JsonValue* field = find_field(object, key);
  if (field == nullptr || !field->is_number()) {
    throw RequestError("bad_request", "missing or non-numeric field '" +
                                          std::string(key) + "'");
  }
  return field->as_number();
}

const std::string& require_string(const JsonValue::Object& object,
                                  std::string_view key) {
  const JsonValue* field = find_field(object, key);
  if (field == nullptr || !field->is_string()) {
    throw RequestError("bad_request", "missing or non-string field '" +
                                          std::string(key) + "'");
  }
  return field->as_string();
}

double get_number(const JsonValue::Object& object, std::string_view key,
                  double fallback) {
  const JsonValue* field = find_field(object, key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) {
    throw RequestError("bad_request",
                       "field '" + std::string(key) + "' must be a number");
  }
  return field->as_number();
}

std::string get_string(const JsonValue::Object& object, std::string_view key,
                       std::string_view fallback) {
  const JsonValue* field = find_field(object, key);
  if (field == nullptr) return std::string(fallback);
  if (!field->is_string()) {
    throw RequestError("bad_request",
                       "field '" + std::string(key) + "' must be a string");
  }
  return field->as_string();
}

}  // namespace rap::serve
