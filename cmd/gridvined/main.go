// Command gridvined is the GridVine peer daemon: one process hosting
// its slice of a deterministic overlay, with durable per-peer journals
// opened before serving and a wire-protocol listener for thin clients.
// SIGTERM/SIGINT triggers a drain (in-flight queries and writes
// complete), a final snapshot of every journal, and a clean exit — so
// `kill -TERM` never loses an acknowledged write.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gridvine/internal/daemon"
)

func main() {
	var cfg daemon.Config
	flag.StringVar(&cfg.Dir, "dir", "", "shared cluster directory (required)")
	flag.IntVar(&cfg.Index, "index", 0, "this daemon's index in [0,daemons)")
	flag.IntVar(&cfg.Daemons, "daemons", 1, "total daemons in the cluster")
	flag.IntVar(&cfg.Peers, "peers", 16, "total overlay peers across the cluster")
	flag.IntVar(&cfg.ReplicaFactor, "replicas", 2, "overlay replication factor")
	flag.Int64Var(&cfg.Seed, "seed", 1, "deterministic overlay seed (must match across the cluster)")
	flag.IntVar(&cfg.SnapshotEvery, "snapshot-every", 0, "WAL records between snapshots (0 = store default: once the WAL is as long as the snapshot and holds 256 records; <0 = never)")
	flag.StringVar(&cfg.ClientAddr, "client-addr", "", "wire listen address (default: reuse previous, else ephemeral)")
	flag.DurationVar(&cfg.PeerWait, "peer-wait", 30*time.Second, "how long to wait for sibling daemons' address files")
	drain := flag.Duration("drain-timeout", 10*time.Second, "shutdown drain budget before in-flight work is cancelled")
	flag.Parse()
	if cfg.Dir == "" {
		fmt.Fprintln(os.Stderr, "gridvined: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	d, err := daemon.Start(cfg)
	if err != nil {
		log.Fatalf("gridvined: %v", err)
	}
	log.Printf("gridvined: daemon %d/%d serving peers [%s] — clients on %s",
		cfg.Index, cfg.Daemons, strings.Join(d.PeerIDs(), " "), d.ClientAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	log.Printf("gridvined: daemon %d: %s — draining", cfg.Index, got)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Printf("gridvined: daemon %d: shutdown: %v", cfg.Index, err)
		os.Exit(1)
	}
	log.Printf("gridvined: daemon %d: snapshots complete, exiting", cfg.Index)
}
