// Command monetlited serves a monetlite database over the wire
// protocol (internal/server/wire; Go clients use repro/client, humans
// use monetlite -connect).
//
// Usage:
//
//	monetlited                      # in-memory DB on localhost:7687
//	monetlited -d dir               # durable DB (WAL + recovery + checkpoint on exit)
//	monetlited -listen host:port    # listen address
//	monetlited -workers N           # concurrently executing queries (default GOMAXPROCS)
//	monetlited -queue N             # admission queue depth beyond the workers (default 4×workers)
//	monetlited -budget BYTES        # per-query memory budget; 0 = unlimited
//	monetlited -spill-dir DIR       # over-budget queries spill here instead of failing
//	monetlited -stmt-timeout DUR    # cancel statements that run longer than DUR; 0 = no limit
//	monetlited -tls-cert/-tls-key   # serve TLS (both or neither)
//
// One process owns the database; every connection is a session onto
// the shared engine, so prepared plans are shared across connections
// (the plan cache) and total query concurrency is bounded (admission
// control rejects excess with typed errors instead of queueing without
// bound). -budget and -spill-dir are the engine's options
// (engine.WithMemBudget, engine.WithSpill), so a statement is governed
// exactly as it would be embedded: without -spill-dir an over-budget
// query fails with a budget error, with it the query degrades to disk.
//
// SIGTERM and SIGINT drain: the listener closes, sessions finish their
// in-flight command, and the database closes — which CHECKPOINTS a -d
// database — before the process exits. A drain stuck past the grace
// period force-cancels in-flight queries at their next morsel
// boundary. Exit is through realMain's return so the deferred close
// always runs.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/engine"
	"repro/internal/server"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	listen := flag.String("listen", "localhost:7687", "listen address")
	dir := flag.String("d", "", "persist the database in this directory")
	workers := flag.Int("workers", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
	budget := flag.Int64("budget", 0, "per-query memory budget in bytes (0 = unlimited)")
	spillDir := flag.String("spill-dir", "", "over-budget queries spill to files in this directory instead of failing (with -budget)")
	stmtTimeout := flag.Duration("stmt-timeout", 0, "per-statement execution timeout (0 = no limit)")
	recycle := flag.Bool("recycle", false, "enable the intermediate-result recycler")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (with -tls-key)")
	tlsKey := flag.String("tls-key", "", "TLS key file (with -tls-cert)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace period before in-flight queries are canceled")
	flag.Parse()

	logger := log.New(os.Stderr, "monetlited: ", log.LstdFlags)

	if (*tlsCert == "") != (*tlsKey == "") {
		logger.Print("-tls-cert and -tls-key must be given together")
		return 1
	}

	var opts []engine.Option
	if *dir != "" {
		opts = append(opts, engine.WithDir(*dir))
	}
	if *recycle {
		opts = append(opts, engine.WithRecycler(256<<20))
	}
	if *budget > 0 {
		opts = append(opts, engine.WithMemBudget(*budget))
	}
	if *spillDir != "" {
		opts = append(opts, engine.WithSpill(*spillDir))
	}
	db, err := engine.Open(opts...)
	if err != nil {
		logger.Print(err)
		return 1
	}
	// Close checkpoints a -d database. A failed close means the disk
	// state is behind what sessions were told was committed — say so in
	// the exit code.
	defer func() {
		if err := db.Close(); err != nil {
			logger.Printf("close: %v", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	srv, err := server.New(server.Config{
		DB:          db,
		Workers:     *workers,
		QueueDepth:  *queue,
		StmtTimeout: *stmtTimeout,
		Banner:      "monetlited",
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}

	var ln net.Listener
	if *tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
		if err != nil {
			logger.Printf("tls: %v", err)
			return 1
		}
		ln, err = tls.Listen("tcp", *listen, &tls.Config{Certificates: []tls.Certificate{cert}})
		if err != nil {
			logger.Print(err)
			return 1
		}
	} else {
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			logger.Print(err)
			return 1
		}
	}
	logger.Printf("serving on %s", ln.Addr())
	// The e2e smoke test needs the bound port when -listen used :0.
	fmt.Printf("listening %s\n", ln.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func(ctx context.Context) {
		serveErr <- srv.Serve(ctx, ln)
	}(ctx)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		if err != nil {
			logger.Print(err)
			return 1
		}
		return 0
	case s := <-sig:
		logger.Printf("%s: draining", s)
		sctx, scancel := context.WithTimeout(ctx, *grace)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Printf("drain: %v", err)
		}
		if err := <-serveErr; err != nil {
			logger.Print(err)
			return 1
		}
		logger.Print("drained; closing database")
		return 0
	}
}
