// sdsp-serve is the fault-tolerant sweep daemon: a coordinator that
// accepts sweep jobs over HTTP and supervises a fleet of workers that
// claim cells through the store, the workers themselves, and a small
// submit client.
//
// Usage:
//
//	sdsp-serve -store .cells                      # coordinator (+1 local worker)
//	sdsp-serve -store .cells -local 0             # pure supervisor, no local compute
//	sdsp-serve -store .cells -worker              # one worker process
//	sdsp-serve -addr host:8372 -submit -exp fig3  # submit a job, wait, print tables
//
// Every process shares only the store directory. Workers and the
// coordinator may be killed (SIGKILL included) and restarted at any
// point: committed cells are never recomputed, claimed cells of dead
// workers requeue at once (and of silent ones when their lease
// expires), and a restarted coordinator resumes every job from its
// durable state. SIGTERM drains gracefully: claimed cells finish and
// commit, new submissions are refused, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		worker  = flag.Bool("worker", false, "run as a cell worker instead of the coordinator")
		submit  = flag.Bool("submit", false, "run as a client: submit a job to -addr, wait, print its tables")
		expFlag = flag.String("exp", "all", "experiments for -submit (comma-separated, or 'all')")
		scale   = flag.String("scale", "paper", "problem scale for -submit: paper or small")
		bpred   = flag.String("bpred", "", "branch predictor override for -submit")
		fetch   = flag.String("fetch", "", "fetch-policy override for -submit")
		fault   = flag.String("fault", "", "fault schedule for -submit")
		wait    = flag.Duration("wait", 30*time.Minute, "how long -submit waits for the job to finish")
	)
	var sf cliflags.Serve
	sf.RegisterServe(nil)
	var sup cliflags.Supervision
	sup.Register(nil)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "sdsp-serve: %v\n", err)
		os.Exit(2)
	}
	if *worker && *submit {
		fail(fmt.Errorf("-worker and -submit are mutually exclusive"))
	}
	if err := sf.Validate(*worker); err != nil {
		fail(err)
	}

	if *submit {
		runSubmit(&sf, *expFlag, *scale, *bpred, *fetch, *fault, *wait)
		return
	}

	if sup.StoreDir == "" {
		fail(fmt.Errorf("-store is required: the store directory is the daemon's only shared state"))
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sdsp-serve: "+format+"\n", args...)
	}
	st, err := store.Open(sup.StoreDir, logf)
	if err != nil {
		fail(err)
	}
	defer st.Close()

	// SIGTERM/SIGINT start the graceful drain; a second signal (or
	// SIGKILL at any time) exits immediately, which the durable state
	// tolerates by design.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *worker {
		host, _ := os.Hostname()
		w := &serve.Worker{
			Store: st, Flags: sf,
			CellTimeout: sup.CellTimeout, Retries: sup.Retries,
			Owner: fmt.Sprintf("%s/pid%d", host, os.Getpid()),
			Logf:  logf,
		}
		logf("worker %s on store %s (lease %v)", w.Owner, st.Dir(), sf.Lease)
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "sdsp-serve: %v\n", err)
			os.Exit(1)
		}
		logf("worker drained")
		return
	}

	ln, err := net.Listen("tcp", sf.Addr)
	if err != nil {
		fail(err)
	}
	srv := &serve.Server{
		Store: st, Flags: sf,
		CellTimeout: sup.CellTimeout, Retries: sup.Retries,
		Logf: logf,
	}
	logf("coordinator on %s, store %s (%d local workers, queue %d)",
		ln.Addr(), st.Dir(), sf.Local, sf.MaxQueue)
	if err := srv.Run(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-serve: %v\n", err)
		os.Exit(1)
	}
}

func runSubmit(sf *cliflags.Serve, exps, scale, bpred, fetch, fault string, wait time.Duration) {
	sp := &experiments.Sweep{Experiments: strings.Split(exps, ","), Scale: scale,
		Bpred: bpred, Fetch: fetch, Fault: fault}
	c := &serve.Client{Base: "http://" + sf.Addr}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	id, err := c.Submit(ctx, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sdsp-serve: job %s submitted; waiting\n", id)
	tables, err := c.WaitTables(ctx, id, sf.Poll)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsp-serve: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(tables)
}
