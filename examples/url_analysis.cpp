// The Sect. 4.1.2 scenario: a string column of URL requests and a
// calculation extracting the file extension. The strategic optimizer
// pushes EXTENSION(url) into an invisible join on the compressed column,
// so the string function runs once per *distinct* URL (a code map over
// the column's dictionary) and every row looks its extension up by code.
// The same query runs with the rewrite off, evaluating it per row.

#include <chrono>
#include <cstdio>

#include "src/core/engine.h"

using namespace tde;  // NOLINT

int main() {
  // A web log: many rows, few distinct URLs.
  const char* urls[] = {
      "/index.html",       "/logo.png",       "/app.js",
      "/styles/site.css",  "/api/data.json",  "/docs/guide.pdf",
      "/img/banner.jpg",   "/favicon.ico",    "/search.html",
      "/video/intro.mp4",
  };
  std::string csv = "url,bytes\n";
  for (int i = 0; i < 200000; ++i) {
    csv += urls[static_cast<size_t>(i * 2654435761u % 10)];
    csv += ",";
    csv += std::to_string(i % 5000);
    csv += "\n";
  }

  Engine engine;
  auto table = engine.ImportTextBuffer(csv, "weblog").MoveValue();
  const Column& url_col = *table->ColumnByName("url").value();
  std::printf("url column: %s, %llu distinct of %llu rows, sorted heap: %s\n",
              EncodingName(url_col.data()->type()),
              static_cast<unsigned long long>(url_col.metadata().cardinality),
              static_cast<unsigned long long>(table->rows()),
              url_col.heap()->sorted() ? "yes" : "no");

  // Count requests per file extension.
  const char* sql =
      "SELECT EXTENSION(url) AS ext, COUNT(*) AS requests, "
      "SUM(bytes) AS bytes FROM weblog GROUP BY ext ORDER BY ext";
  auto explain = engine.ExecuteSql(std::string("EXPLAIN ") + sql);
  if (!explain.ok()) {
    std::fprintf(stderr, "%s\n", explain.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s", explain.value().ToCsv().c_str());

  double seconds[2] = {0, 0};
  for (const bool on : {false, true}) {
    const auto started = std::chrono::steady_clock::now();
    auto r = engine.ExecuteSql(
        sql, StrategicOptions{.enable_invisible_join = on});
    seconds[on] = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    if (on) {
      std::printf("\nrequests per extension (invisible-join plan):\n%s",
                  r.value().ToString().c_str());
    }
  }
  std::printf("per-row plan: %.4fs; invisible-join plan: %.4fs (%.1fx)\n",
              seconds[0], seconds[1], seconds[0] / seconds[1]);
  return 0;
}
