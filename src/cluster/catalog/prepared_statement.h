#ifndef MTDB_CLUSTER_CATALOG_PREPARED_STATEMENT_H_
#define MTDB_CLUSTER_CATALOG_PREPARED_STATEMENT_H_

#include <string>
#include <utility>

namespace mtdb {

class ClusterController;

// A cluster-level prepared statement: one SQL text plus the routing facts the
// controller derived from it once (read vs. write, which table a write
// touches), so executing it skips the controller's routing parse. It keeps no
// machine state: every execution ships the SQL text, and each machine plans
// it through its engine plan cache (keyed by text, re-planned after DDL).
//
// Instances are immutable values, shared (one per distinct (database, sql)
// pair, handed out as shared_ptr by ClusterController::PrepareStatement). The
// registry entry lives in the tenant catalog's evictable resident state:
// evicting an idle tenant drops the registration, but outstanding shared_ptr
// holders keep executing through their instance unaffected — the next
// Prepare of the same text simply makes a fresh registration.
class PreparedStatement {
 public:
  const std::string& database() const { return db_name_; }
  const std::string& sql() const { return sql_; }
  bool is_read() const { return is_read_; }
  const std::string& write_table() const { return write_table_; }

  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;

 private:
  friend class ClusterController;

  PreparedStatement(std::string db_name, std::string sql, bool is_read,
                    std::string write_table)
      : db_name_(std::move(db_name)), sql_(std::move(sql)), is_read_(is_read),
        write_table_(std::move(write_table)) {}

  const std::string db_name_;
  const std::string sql_;
  const bool is_read_;
  const std::string write_table_;  // empty for reads
};

}  // namespace mtdb

#endif  // MTDB_CLUSTER_CATALOG_PREPARED_STATEMENT_H_
