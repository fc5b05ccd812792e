package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/obs"
)

// Process plumbing shared by the campaign commands, which run their shards
// as re-execs of their own binary, each with a journal next to the main one.
const (
	// Lease is how long a worker may stay silent before the coordinator
	// declares it dead. Heartbeats arrive every HeartbeatEvery, so a
	// healthy worker is never close to the bound even when a single unit
	// runs for minutes.
	Lease          = 2 * time.Minute
	HeartbeatEvery = 5 * time.Second

	// EnvKillKey / EnvKillOnce are the worker-kill injection hooks the
	// equivalence tests use: a worker that journals the named unit exits
	// immediately afterwards — the journaled-but-unstreamed window — and
	// the kill-once sentinel file (created O_EXCL) makes sure only the
	// first incarnation dies.
	EnvKillKey  = "UNTANGLE_SHARD_KILL_KEY"
	EnvKillOnce = "UNTANGLE_SHARD_KILL_ONCE"
)

// JournalPath is worker i's private checkpoint journal. It lives next to
// the main journal so harvest, merge, and resume all find it.
func JournalPath(ckpt string, shard int) string {
	return fmt.Sprintf("%s.shard%d", ckpt, shard)
}

// Launch starts the worker processes of a campaign journaled at main. It
// first merges the shard journals a previous (killed) sharded run left
// behind into main, so their units are not run again, then spawns workers
// by re-executing this binary with `-shard-worker -shard <i>` followed by
// args, under the standard lease and with a Recover that harvests a dead
// worker's journal. logf receives the lifecycle log.
func Launch(main *checkpoint.Journal, workers int, args []string, logf func(string, ...any)) (*Coordinator, error) {
	for i := 0; i < workers; i++ {
		added, err := main.MergeFrom(JournalPath(main.Path(), i))
		if err != nil {
			return nil, fmt.Errorf("merge shard %d journal: %w", i, err)
		}
		if added > 0 {
			logf("resumed %d units from shard %d's journal", added, i)
		}
	}
	return New(func(shardIdx int) (*Proc, error) {
		// The environment is inherited, which is how the kill-injection
		// hooks reach the workers.
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, append([]string{"-shard-worker", "-shard", strconv.Itoa(shardIdx)}, args...)...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &Proc{
			In:   stdin,
			Out:  stdout,
			Kill: func() { cmd.Process.Kill() },
			Wait: func() error { return cmd.Wait() },
		}, nil
	}, Options{
		Workers: workers,
		Lease:   Lease,
		Recover: func(shardIdx int) (map[string]json.RawMessage, error) {
			path := JournalPath(main.Path(), shardIdx)
			if at, ok := obs.LastBeat(path + ".heartbeat"); ok {
				logf("shard %d last heartbeat %s ago", shardIdx, time.Since(at).Round(time.Second))
			}
			return checkpoint.ReadUnits(path, main.Fingerprint())
		},
		Logf: logf,
	})
}

// Close shuts the workers down and logs the campaign-end "shards:" counter
// line.
func (c *Coordinator) Close() {
	if err := c.Shutdown(); err != nil {
		c.opts.Logf("shard shutdown: %v", err)
	}
	st := c.Stats()
	c.opts.Logf("shards: %d spawned, %d died, %d assigned, %d completed, %d recovered, %d requeued, %d duplicates",
		st.Spawned, st.Died, st.Assigned, st.Completed, st.Recovered, st.Requeued, st.Duplicates)
}

// ServeWorker is the body of a `-shard-worker` process for the campaign
// journaled at ckpt under fp: it opens the shard journal and its heartbeat
// sidecar, arms the kill-injection hook, and runs cfg (its Shard, Exec and
// SetContext; ServeWorker fills the rest) on stdin/stdout — log lines go to
// stderr — until the coordinator says shutdown.
func ServeWorker(ckpt string, fp checkpoint.Fingerprint, cfg WorkerConfig) error {
	// The coordinator owns the campaign's lifecycle: a terminal ^C reaches
	// the whole process group, but the worker must keep draining units
	// until the coordinator says shutdown (or closes the pipe).
	signal.Ignore(os.Interrupt)

	journal, err := checkpoint.Open(JournalPath(ckpt, cfg.Shard), fp)
	if err != nil {
		return err
	}
	defer journal.Close()
	// The heartbeat sidecar rides the shard journal so the coordinator can
	// tell post-mortem when a dead worker last made progress (Launch).
	hb, err := obs.OpenHeartbeat(obs.HeartbeatPath(journal))
	if err != nil {
		log.Printf("heartbeat: %v (continuing without)", err)
	} else {
		defer hb.Close()
	}
	cfg.Journal = journal
	cfg.HeartbeatEvery = HeartbeatEvery
	cfg.OnBeat = func() { hb.Beat(obs.Snapshot{}) }
	cfg.PostRecord = killHook()
	return RunWorker(context.Background(), os.Stdin, os.Stdout, cfg)
}

// killHook arms the EnvKillKey injection: nil unless the variable is set.
func killHook() func(key string) {
	killKey := os.Getenv(EnvKillKey)
	if killKey == "" {
		return nil
	}
	killOnce := os.Getenv(EnvKillOnce)
	return func(key string) {
		if key != killKey {
			return
		}
		if killOnce != "" {
			f, err := os.OpenFile(killOnce, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				return // a previous incarnation already died here
			}
			f.Close()
		}
		log.Printf("kill hook: exiting after journaling %s", key)
		os.Exit(17)
	}
}
