// Command gridvinectl operates a local gridvined cluster:
//
//	gridvinectl deploy -dir DIR -bin PATH [-n 4] [-peers 16] ...
//	    spawn a fresh N-daemon cluster and wait until it serves
//	gridvinectl load -dir DIR [-connections 256] [-duration 5s] ...
//	    drive a mixed query/write workload, print a JSON report
//	gridvinectl stats -dir DIR
//	    print each daemon's operational counters
//	gridvinectl dump -dir DIR [-peer ID]
//	    print per-peer store paths, sizes, digests and WAL positions
//	gridvinectl stop -dir DIR [-timeout 15s]
//	    drain every daemon (SIGTERM) and wait for the processes to exit
//
// All state lives in the cluster directory, so deploy/load/stop can
// run from different invocations (and different processes).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gridvine/internal/cluster"
	"gridvine/internal/loadgen"
	"gridvine/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "deploy":
		err = cmdDeploy(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "stop":
		err = cmdStop(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridvinectl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gridvinectl {deploy|load|stats|dump|stop} [flags]")
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	var spec cluster.Spec
	fs.StringVar(&spec.Dir, "dir", "", "cluster directory (required)")
	fs.StringVar(&spec.BinPath, "bin", "", "gridvined binary (required)")
	fs.IntVar(&spec.Daemons, "n", 4, "daemon processes")
	fs.IntVar(&spec.Peers, "peers", 16, "total overlay peers")
	fs.IntVar(&spec.ReplicaFactor, "replicas", 2, "overlay replication factor")
	fs.Int64Var(&spec.Seed, "seed", 1, "deterministic overlay seed")
	fs.IntVar(&spec.SnapshotEvery, "snapshot-every", 0, "journal snapshot cadence in records (0 = default: when the WAL outgrows the snapshot; <0 = never)")
	fs.DurationVar(&spec.ReadyTimeout, "ready-timeout", 60*time.Second, "readiness wait")
	fs.Parse(args) //nolint:errcheck
	if spec.Dir == "" || spec.BinPath == "" {
		return fmt.Errorf("deploy: -dir and -bin are required")
	}
	c, err := cluster.Deploy(spec)
	if err != nil {
		return err
	}
	addrs, err := c.Addrs()
	if err != nil {
		return err
	}
	fmt.Printf("deployed %d daemons (%d peers) in %s\n", c.Daemons(), spec.Peers, c.Dir())
	for i, a := range addrs {
		fmt.Printf("  daemon %d: pid %d, clients on %s\n", i, c.PIDs()[i], a)
	}
	return nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	dir := fs.String("dir", "", "cluster directory (required)")
	var cfg loadgen.Config
	fs.IntVar(&cfg.Connections, "connections", 256, "concurrent client connections")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "load duration")
	fs.Float64Var(&cfg.WriteRatio, "write-ratio", 0.2, "fraction of ops that are writes")
	fs.IntVar(&cfg.QueryLimit, "limit", 64, "rows per query")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Parse(args) //nolint:errcheck
	if *dir == "" {
		return fmt.Errorf("load: -dir is required")
	}
	c, err := cluster.Attach(*dir)
	if err != nil {
		return err
	}
	cfg.Addrs, err = c.Addrs()
	if err != nil {
		return err
	}
	res, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// eachDaemon runs fn against every daemon's wire client.
func eachDaemon(dir string, fn func(i int, cl *wire.Client) error) error {
	c, err := cluster.Attach(dir)
	if err != nil {
		return err
	}
	addrs, err := c.Addrs()
	if err != nil {
		return err
	}
	for i, a := range addrs {
		cl, err := wire.Dial(a)
		if err != nil {
			return fmt.Errorf("daemon %d (%s): %w", i, a, err)
		}
		err = fn(i, cl)
		cl.Close() //nolint:errcheck
		if err != nil {
			return fmt.Errorf("daemon %d: %w", i, err)
		}
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("dir", "", "cluster directory (required)")
	fs.Parse(args) //nolint:errcheck
	if *dir == "" {
		return fmt.Errorf("stats: -dir is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return eachDaemon(*dir, func(i int, cl *wire.Client) error {
		st, err := cl.Stats(ctx)
		if err != nil {
			return err
		}
		ov, j, w := st.Overlay, st.Journal, st.Wire
		fmt.Printf("daemon %d: peers=%d uptime=%s draining=%v queries=%d writes=%d rows=%d active=%d/%d conns=%d rejected=%d compose=%d/%d hit/miss inval=%d entries=%d journal_errs=%d journal=%d snaps/%d snap-bytes/%d wal-bytes overlay=%d sent/%d local pool=%d/%d/%d dial/reuse/redial idle=%d wire=in %d/%d out %d/%d bad %d\n",
			st.Daemon, len(st.Peers), (time.Duration(st.UptimeMillis) * time.Millisecond).Round(time.Second),
			st.Draining, st.QueriesServed, st.WritesServed, st.RowsStreamed,
			st.ActiveQueries, st.ActiveWrites,
			st.ActiveConns, st.ConnsRejected,
			st.ComposeHits, st.ComposeMisses, st.ComposeInvalidations, st.ComposeEntries, st.JournalErrs,
			j.Snapshots, j.SnapshotBytes, j.WALBytes,
			ov.Sends, ov.LocalDeliveries, ov.PoolDials, ov.PoolReuses, ov.PoolRedials, ov.PoolIdle,
			w.FramesIn, w.BytesIn, w.FramesOut, w.BytesOut, w.BadFrames)
		return nil
	})
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	dir := fs.String("dir", "", "cluster directory (required)")
	peer := fs.String("peer", "", "narrow to one peer ID")
	fs.Parse(args) //nolint:errcheck
	if *dir == "" {
		return fmt.Errorf("dump: -dir is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return eachDaemon(*dir, func(i int, cl *wire.Client) error {
		d, err := cl.Dump(ctx, *peer)
		if err != nil {
			if *peer != "" {
				// The peer lives on one daemon; the others answer
				// not-hosted.
				return nil
			}
			return err
		}
		for _, pd := range d.Peers {
			fmt.Printf("daemon %d: %s path=%s triples=%d digest=%016x wal_seq=%d journal_err=%q\n",
				i, pd.ID, pd.Path, pd.Triples, pd.Digest, pd.WALSeq, pd.JournalErr)
		}
		return nil
	})
}

func cmdStop(args []string) error {
	fs := flag.NewFlagSet("stop", flag.ExitOnError)
	dir := fs.String("dir", "", "cluster directory (required)")
	timeout := fs.Duration("timeout", 15*time.Second, "per-daemon drain wait")
	fs.Parse(args) //nolint:errcheck
	if *dir == "" {
		return fmt.Errorf("stop: -dir is required")
	}
	c, err := cluster.Attach(*dir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := c.Stop(ctx); err != nil {
		return err
	}
	fmt.Printf("stopped %d daemons\n", c.Daemons())
	return nil
}
