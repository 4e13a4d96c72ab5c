#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/sql/lexer.h"
#include "src/sql/parser.h"

namespace mtdb::sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x = 42");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_TRUE((*tokens)[0].Is("select"));
  EXPECT_TRUE((*tokens)[0].Is("SELECT"));
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, NumericLiterals) {
  auto tokens = Tokenize("1 3.25 999999999999");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[0].int_value, 1);
  EXPECT_EQ((*tokens)[1].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.25);
  EXPECT_EQ((*tokens)[2].int_value, 999999999999LL);
}

TEST(LexerTest, StringLiteralWithEscapedQuote) {
  auto tokens = Tokenize("'it''s here'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kStringLiteral);
  EXPECT_EQ((*tokens)[0].text, "it's here");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_EQ(Tokenize("'oops").status().code(), StatusCode::kParseError);
}

// Literals arrive from clients and over the wire: one that does not fit its
// type is a parse error, never an exception that ends the process.
TEST(LexerTest, OutOfRangeIntLiteralFails) {
  auto tokens = Tokenize("SELECT 99999999999999999999999;");
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parse("SELECT 99999999999999999999999;").status().code(),
            StatusCode::kParseError);
  // The largest int64 still lexes.
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[0].int_value, INT64_MAX);
}

TEST(LexerTest, OutOfRangeDoubleLiteralFails) {
  const std::string huge = std::string(400, '9') + ".5";
  EXPECT_EQ(Tokenize("SELECT " + huge).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Tokenize(huge).status().code(), StatusCode::kParseError);
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("a <= b >= c <> d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<=");
  EXPECT_EQ((*tokens)[3].text, ">=");
  EXPECT_EQ((*tokens)[5].text, "<>");
  EXPECT_EQ((*tokens)[7].text, "<>");  // != normalized
}

TEST(LexerTest, LineCommentsSkipped) {
  auto tokens = Tokenize("SELECT 1 -- trailing comment\n, 2");
  ASSERT_TRUE(tokens.ok());
  // SELECT 1 , 2 END
  EXPECT_EQ(tokens->size(), 5u);
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT id, name FROM users WHERE id = 7");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kSelect);
  EXPECT_EQ(stmt->select.items.size(), 2u);
  EXPECT_EQ(stmt->select.from.size(), 1u);
  EXPECT_EQ(stmt->select.from[0].table, "users");
  ASSERT_NE(stmt->select.where, nullptr);
  EXPECT_EQ(stmt->select.where->op, "=");
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  auto stmt = Parse("SELECT *, t.* FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->select.items[0].star);
  EXPECT_TRUE(stmt->select.items[1].star);
  EXPECT_EQ(stmt->select.items[1].star_table, "t");
}

TEST(ParserTest, JoinWithOn) {
  auto stmt = Parse(
      "SELECT o.id, c.name FROM orders o JOIN customers c "
      "ON o.customer_id = c.id WHERE o.total > 100");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.from.size(), 1u);
  ASSERT_EQ(stmt->select.joins.size(), 1u);
  EXPECT_EQ(stmt->select.joins[0].table.table, "customers");
  EXPECT_EQ(stmt->select.joins[0].table.alias, "c");
  ASSERT_NE(stmt->select.joins[0].on, nullptr);
}

TEST(ParserTest, CommaJoin) {
  auto stmt = Parse("SELECT a.x FROM a, b WHERE a.id = b.id");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.from.size(), 2u);
}

TEST(ParserTest, GroupByHavingOrderByLimit) {
  auto stmt = Parse(
      "SELECT cat, COUNT(*) AS n FROM items GROUP BY cat "
      "HAVING COUNT(*) > 2 ORDER BY n DESC, cat ASC LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.group_by.size(), 1u);
  ASSERT_NE(stmt->select.having, nullptr);
  ASSERT_EQ(stmt->select.order_by.size(), 2u);
  EXPECT_TRUE(stmt->select.order_by[0].descending);
  EXPECT_FALSE(stmt->select.order_by[1].descending);
  EXPECT_EQ(stmt->select.limit, 10);
}

TEST(ParserTest, AggregateFunctions) {
  auto stmt = Parse("SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.items.size(), 5u);
  EXPECT_TRUE(stmt->select.items[0].expr->star);
  EXPECT_TRUE(stmt->select.items[1].expr->ContainsAggregate());
}

TEST(ParserTest, InsertWithColumnsAndMultipleRows) {
  auto stmt =
      Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (?, ?)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kInsert);
  EXPECT_EQ(stmt->insert.columns.size(), 2u);
  EXPECT_EQ(stmt->insert.rows.size(), 3u);
  EXPECT_EQ(stmt->insert.rows[2][0]->kind, ExprKind::kParam);
  EXPECT_EQ(stmt->insert.rows[2][1]->param_index, 1);
}

TEST(ParserTest, Update) {
  auto stmt = Parse("UPDATE t SET a = a + 1, b = ? WHERE id = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kUpdate);
  EXPECT_EQ(stmt->update.assignments.size(), 2u);
  ASSERT_NE(stmt->update.where, nullptr);
}

TEST(ParserTest, Delete) {
  auto stmt = Parse("DELETE FROM t WHERE x < 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kDelete);
}

TEST(ParserTest, CreateTableInlinePk) {
  auto stmt = Parse(
      "CREATE TABLE items (id INT PRIMARY KEY, name VARCHAR(50) NOT NULL, "
      "price DOUBLE)");
  ASSERT_TRUE(stmt.ok());
  const TableSchema& schema = stmt->create_table.schema;
  EXPECT_EQ(schema.name(), "items");
  EXPECT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.primary_key_index(), 0);
  EXPECT_TRUE(schema.columns()[1].not_null);
  EXPECT_EQ(schema.columns()[2].type, ColumnType::kDouble);
}

TEST(ParserTest, CreateTableTrailingPk) {
  auto stmt = Parse("CREATE TABLE t (a INT, b VARCHAR(10), PRIMARY KEY (a))");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->create_table.schema.primary_key_index(), 0);
}

TEST(ParserTest, CreateTableWithoutPkFails) {
  EXPECT_EQ(Parse("CREATE TABLE t (a INT)").status().code(),
            StatusCode::kParseError);
}

TEST(ParserTest, CreateIndex) {
  auto stmt = Parse("CREATE INDEX idx_name ON items (name)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kCreateIndex);
  EXPECT_EQ(stmt->create_index.table, "items");
  EXPECT_EQ(stmt->create_index.column, "name");
}

TEST(ParserTest, DropTable) {
  auto stmt = Parse("DROP TABLE items");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kDropTable);
  EXPECT_EQ(stmt->drop_table.table, "items");
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
  ASSERT_TRUE(stmt.ok());
  // OR is the root; AND binds tighter.
  EXPECT_EQ(stmt->select.where->op, "OR");
  EXPECT_EQ(stmt->select.where->children[1]->op, "AND");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = Parse("SELECT 1 + 2 * 3 FROM t");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *stmt->select.items[0].expr;
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.children[1]->op, "*");
}

TEST(ParserTest, InListAndBetween) {
  auto stmt = Parse(
      "SELECT a FROM t WHERE x IN (1, 2, 3) AND y NOT IN (4) "
      "AND z BETWEEN 5 AND 10");
  ASSERT_TRUE(stmt.ok());
  std::vector<const Expr*> conjuncts;
  // Root is AND-tree; just check it parsed.
  EXPECT_EQ(stmt->select.where->op, "AND");
}

TEST(ParserTest, IsNullAndIsNotNull) {
  auto stmt = Parse("SELECT a FROM t WHERE x IS NULL AND y IS NOT NULL");
  ASSERT_TRUE(stmt.ok());
  const Expr& root = *stmt->select.where;
  EXPECT_EQ(root.children[0]->kind, ExprKind::kIsNull);
  EXPECT_FALSE(root.children[0]->negated);
  EXPECT_EQ(root.children[1]->kind, ExprKind::kIsNull);
  EXPECT_TRUE(root.children[1]->negated);
}

TEST(ParserTest, LikePattern) {
  auto stmt = Parse("SELECT a FROM t WHERE name LIKE 'A%'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.where->op, "LIKE");
}

TEST(ParserTest, ParamNumberingIsPositional) {
  auto stmt = Parse("SELECT a FROM t WHERE x = ? AND y = ? AND z = ?");
  ASSERT_TRUE(stmt.ok());
  std::vector<const Expr*> stack = {stmt->select.where.get()};
  std::vector<int> params;
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind == ExprKind::kParam) params.push_back(e->param_index);
    for (const auto& c : e->children) {
      if (c) stack.push_back(c.get());
    }
  }
  std::sort(params.begin(), params.end());
  EXPECT_EQ(params, (std::vector<int>{0, 1, 2}));
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_EQ(Parse("SELECT a FROM t garbage garbage garbage").status().code(),
            StatusCode::kParseError);
  EXPECT_FALSE(Parse("SELECT a FROM t; extra").ok());
}

TEST(ParserTest, EmptyAndNonsenseFail) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("FOO BAR").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES").ok());
}

TEST(ParserTest, NegativeNumbersAndUnaryMinus) {
  auto stmt = Parse("SELECT -x, 0 - 5 FROM t WHERE y = -3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.items[0].expr->kind, ExprKind::kUnary);
}

}  // namespace
}  // namespace mtdb::sql
