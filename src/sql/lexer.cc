#include "src/sql/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace mtdb::sql {

bool Token::Is(std::string_view keyword) const {
  if (type != TokenType::kIdentifier && type != TokenType::kSymbol) {
    return false;
  }
  if (text.size() != keyword.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(text[i])) !=
        std::toupper(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  return true;
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      token.type = TokenType::kIdentifier;
      token.text = sql.substr(start, i - start);
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_double = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_double = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      token.text = sql.substr(start, i - start);
      token.type =
          is_double ? TokenType::kDoubleLiteral : TokenType::kIntLiteral;
      const char* first = token.text.data();
      const char* last = first + token.text.size();
      const std::from_chars_result parsed =
          is_double ? std::from_chars(first, last, token.double_value)
                    : std::from_chars(first, last, token.int_value);
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::ParseError("numeric literal out of range at offset " +
                                  std::to_string(token.position));
      }
    } else if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            i += 2;
            continue;
          }
          closed = true;
          ++i;
          break;
        }
        text.push_back(sql[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(token.position));
      }
      token.type = TokenType::kStringLiteral;
      token.text = std::move(text);
    } else {
      // Two-character operators first.
      if (i + 1 < n) {
        std::string two = sql.substr(i, 2);
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          token.type = TokenType::kSymbol;
          token.text = two == "!=" ? "<>" : two;
          i += 2;
          tokens.push_back(std::move(token));
          continue;
        }
      }
      static constexpr std::string_view kSingles = "(),.*=<>+-/%?;";
      if (kSingles.find(c) == std::string_view::npos) {
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(i));
      }
      token.type = TokenType::kSymbol;
      token.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace mtdb::sql
