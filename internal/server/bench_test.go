package server

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/engine"
)

// BenchmarkServe measures end-to-end wire round trips — dial once,
// prepare once, then Execute a vectorized aggregate repeatedly — at
// 1, 4 and 8 concurrent connections. Per-query latencies are recorded
// so p50/p99 land next to throughput in the benchmark output.
func BenchmarkServe(b *testing.B) {
	for _, conns := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			benchServe(b, conns)
		})
	}
}

func benchServe(b *testing.B, conns int) {
	db, err := engine.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	seed := db.Conn()
	if _, err := seed.Exec(context.Background(), "CREATE TABLE t (a INT, b INT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sql := "INSERT INTO t VALUES (0, 0)"
		for j := 1; j < 1000; j++ {
			sql += fmt.Sprintf(", (%d, %d)", i*1000+j, j%97)
		}
		if _, err := seed.Exec(context.Background(), sql); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	srv, err := New(Config{DB: db, Workers: conns, QueueDepth: 4 * conns, Banner: "bench", Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func(ctx context.Context) {
		serveErr <- srv.Serve(ctx, ln)
	}(context.Background())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		if err := <-serveErr; err != nil {
			b.Fatal(err)
		}
	}()

	clients := make([]*client.Client, conns)
	stmts := make([]*client.Stmt, conns)
	for i := range clients {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		st, err := c.Prepare("SELECT sum(b) AS s FROM t WHERE a < ?")
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
		stmts[i] = st
	}

	perConn := b.N / conns
	if perConn == 0 {
		perConn = 1
	}
	lat := make([][]time.Duration, conns)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := stmts[i]
			ds := make([]time.Duration, 0, perConn)
			for q := 0; q < perConn; q++ {
				start := time.Now()
				rows, err := st.Query(context.Background(), int64(5000))
				if err != nil {
					b.Error(err)
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					b.Error(err)
					return
				}
				if err := rows.Close(); err != nil {
					b.Error(err)
					return
				}
				ds = append(ds, time.Since(start))
			}
			lat[i] = ds
		}(i)
	}
	wg.Wait()
	b.StopTimer()

	var all []time.Duration
	for _, ds := range lat {
		all = append(all, ds...)
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := conns * perConn
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(all[len(all)/2].Microseconds()), "p50-µs")
	b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99-µs")
}
