SELECT * FROM t
SELECT a FROM t
SELECT a, b FROM t
SELECT s FROM t
SELECT a + 1 FROM t
SELECT a, b * 2 - x AS e, 1.5 - f FROM t WHERE a > 0
SELECT a, b FROM t WHERE a > 3 AND b < 7 ORDER BY b
SELECT a, b FROM t WHERE a > ? AND f <= ? AND s = ?
SELECT a FROM t WHERE b IS NOT NULL AND f IS NULL
SELECT a, f FROM t WHERE f > 1 AND f <> 2.5
SELECT a FROM t WHERE s <> 'x' AND s IS NOT NULL
SELECT a FROM t LIMIT 3
SELECT a, b FROM t ORDER BY b DESC LIMIT 3
SELECT a, f FROM t ORDER BY f
SELECT a FROM t ORDER BY b
SELECT a FROM t ORDER BY s
SELECT t.a FROM t ORDER BY a
SELECT a, b AS sortme FROM t ORDER BY sortme
SELECT a AS k, b AS k FROM t ORDER BY k DESC
SELECT a, s FROM t ORDER BY s DESC LIMIT 2
SELECT a + b AS e FROM t ORDER BY e
SELECT count(*) FROM t
SELECT count(*) FROM t WHERE a = 7
SELECT count(*), count(f) FROM t
SELECT count(*), sum(x), avg(x), sum(f) FROM t WHERE x < ?
SELECT count(a), count(f), sum(a), avg(f) FROM t
SELECT min(a), max(a), min(f), max(f) FROM t
SELECT count(a + 1), sum(10 - a) FROM t
SELECT count(f * 2.0), sum(a + f) FROM t
SELECT min(1.5 - f), max(f - 2.0) FROM t
SELECT min(a - b), max(b * 3) FROM t
SELECT avg(a * 2) FROM t
SELECT count(s) FROM t
SELECT count(*) FROM t WHERE s = 'x'
SELECT sum(a) AS total FROM t ORDER BY total
SELECT count(*) FROM t LIMIT 1
SELECT a, count(*) FROM t GROUP BY a
SELECT a, sum(b) FROM t GROUP BY a ORDER BY a
SELECT a, count(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 2
SELECT a, count(*) AS n FROM t GROUP BY a ORDER BY n
SELECT t.a, count(*) FROM t GROUP BY t.a ORDER BY t.a
SELECT a, count(*) FROM t GROUP BY t.a ORDER BY a
SELECT a AS k, sum(b) FROM t GROUP BY a ORDER BY a
SELECT a, sum(b), count(*), count(f), avg(f) FROM t GROUP BY a
SELECT a, sum(f), avg(f), min(f), max(f) FROM t GROUP BY a
SELECT a, sum(b + 1), avg(b * 2) FROM t GROUP BY a
SELECT a, sum(f + 1.5), max(f * -1.0) FROM t GROUP BY a
SELECT a, count(b * 2), min(10 - b) FROM t GROUP BY a
SELECT a, avg(b + f) FROM t GROUP BY a
SELECT a, sum(f) FROM t WHERE b > -400 GROUP BY a
SELECT a, count(*) FROM t GROUP BY a LIMIT 2
SELECT a, count(*) FROM t GROUP BY a, b
SELECT a, b, sum(f), count(*) FROM t GROUP BY a, b
SELECT a, b, x, count(*) FROM t GROUP BY a, b, x
SELECT a, b, sum(b), min(f), max(f) FROM t GROUP BY a, b ORDER BY b DESC
SELECT s, sum(a) FROM t GROUP BY s
SELECT s, count(*), sum(f) FROM t GROUP BY s ORDER BY s LIMIT 5
SELECT s, a, count(*) FROM t GROUP BY s, a ORDER BY a
SELECT f, count(*) FROM t GROUP BY f
SELECT * FROM z GROUP BY a, y, h
SELECT * FROM t JOIN u ON t.a = u.a
SELECT t.b, u.w FROM t JOIN u ON t.a = u.a WHERE b > 0
SELECT t.b, u.w FROM t JOIN u ON u.a = t.a
SELECT b, w FROM t JOIN u ON a = a
SELECT t.a FROM t JOIN u ON t.s = u.s
SELECT t.a, u.s FROM t JOIN u ON t.a = u.a
SELECT t.b, u.w, z.y FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a
SELECT t.a FROM t JOIN u ON t.a = u.a JOIN z ON u.s = z.a
SELECT t.b, u.w, z.y FROM t JOIN u ON t.a = u.a JOIN z ON t.b = z.y WHERE y > 0 AND u.w < 100
SELECT sum(t.b) FROM t JOIN u ON t.a = u.a
SELECT t.a, sum(u.w) FROM t JOIN u ON t.a = u.a GROUP BY t.a
SELECT t.a, sum(u.w + t.b), avg(u.g * 2) FROM t JOIN u ON t.a = u.a GROUP BY t.a
SELECT t.a AS k, count(*) FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a GROUP BY t.a ORDER BY k DESC LIMIT 12
SELECT t.b, z.y, avg(u.g) FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a GROUP BY t.b, z.y
SELECT t.b, u.w FROM t JOIN u ON t.a = u.a ORDER BY w
SELECT t.b, u.w FROM t JOIN u ON t.a = u.a ORDER BY w DESC LIMIT 5
SELECT t.b FROM t JOIN u ON t.a = u.a ORDER BY g LIMIT 30
SELECT t.a FROM t JOIN u ON t.a = u.a ORDER BY s
SELECT t.b AS p, u.w AS q FROM t JOIN u ON t.a = u.a JOIN z ON u.a = z.a ORDER BY p LIMIT 100
SELECT a FROM nosuch
SELECT nosuch FROM t
SELECT u.a FROM t
SELECT a FROM t WHERE a = NULL
SELECT a FROM t WHERE a = 1.5
SELECT a FROM t WHERE f = 'x'
SELECT a FROM t WHERE s = 1
SELECT a, count(*) FROM t
SELECT a, b, count(*) FROM t GROUP BY a
SELECT a + 1, count(*) FROM t GROUP BY a
SELECT a, f, count(*) FROM t GROUP BY a, f
SELECT a, count(*) FROM t GROUP BY a ORDER BY b
SELECT s + 1 FROM t
SELECT sum(s + 1) FROM t
SELECT 1 FROM t
SELECT ? FROM t
SELECT a FROM t JOIN t ON t.a = t.a
SELECT t.a FROM t JOIN u ON t.a = t.b
SELECT t.a FROM t JOIN u ON t.a = u.g
SELECT t.a FROM t JOIN u ON t.f = u.g
SELECT t.a FROM t JOIN u ON t.a = z.a
SELECT t.a FROM t JOIN u ON t.a = u.nosuch
SELECT t.a, count(*) FROM t GROUP BY a ORDER BY a
SELECT count(*) FROM t LIMIT 0
SELECT count(*) FROM t WHERE s = 'x' LIMIT 0
