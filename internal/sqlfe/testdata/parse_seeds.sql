CREATE TABLE t (x INT, f FLOAT, s TEXT)
INSERT INTO t VALUES (1, 2.5, 'a'), (-1, 0.0, '')
SELECT x, f FROM t WHERE x >= 10 AND f < 3.5
SELECT s, COUNT(*), SUM(f) FROM t GROUP BY s ORDER BY s LIMIT 5
SELECT * FROM a JOIN b ON a.x = b.y
SELECT f.m, d1.p, d2.p FROM f JOIN d1 ON f.a = d1.k JOIN d2 ON f.b = d2.k
SELECT * FROM f JOIN a ON f.x = a.k JOIN b ON a.p = b.k JOIN c ON f.y = c.k WHERE f.m > 0
SELECT t1.a, SUM(t2.v + t1.w) FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t2.j = t3.k GROUP BY t1.a, t2.b, t3.c ORDER BY t1.a DESC LIMIT 10
SELECT x FROM a JOIN b ON a.x = b.y JOIN
SELECT x FROM a JOIN b ON a.x = b.y ON a.x = b.y
SELECT a.x AS ax FROM a JOIN a ON a.x = a.x ORDER BY ax
DELETE FROM t WHERE x = ?
DROP TABLE t
SELECT MIN(f), MAX(f), AVG(f) FROM t WHERE s <> 'x' OR NOT (x IN (1, 2))
select null, 'it''s', 1e10, .5 from t
SELECT ((((((1))))))
