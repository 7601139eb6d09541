// Command rvworker is a standalone dispatch-protocol worker for the
// distributed sweep dispatcher (package dist): it executes shard
// descriptors — (graph, parameter-block) shards of simulator cases — on
// a pooled sim.Session and sends each shard's aggregate back to the
// coordinator as one result frame, heartbeating while it computes. The
// coordinator ends a connection by closing it; in stdio mode that EOF on
// stdin makes the process exit.
//
// Usage:
//
//	rvworker              speak the protocol on stdin/stdout (the mode
//	                      dist.NewLocal forks; `rvx --dist-workers N
//	                      --dist-worker-bin rvworker` uses N of these)
//	rvworker -listen :7001
//	                      accept TCP coordinator connections, each served
//	                      with its own session (the multi-machine mode
//	                      behind dist.Dial / `rvx --dist-addrs`)
//	rvworker -capacity 8  announce a deeper pipeline window in the hello
//	rvworker -crash-after 3
//	                      fault injection: crash while executing the 3rd
//	                      shard of a connection — exit 3 in stdio mode,
//	                      sever the connection in TCP mode. The chaos
//	                      smoke test forks these to prove a sweep
//	                      survives real worker deaths.
//	rvworker -programs    list the registered program names and exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"

	"repro/dist"
)

func main() {
	listen := flag.String("listen", "", "TCP address to accept coordinator connections on (default: serve stdin/stdout)")
	programs := flag.Bool("programs", false, "list registered program names and exit")
	capacity := flag.Int("capacity", 0, "pipeline window announced in the hello frame (default: protocol default)")
	crashAfter := flag.Int("crash-after", 0, "fault injection: crash while executing the Nth shard of each connection (0 disables)")
	flag.Parse()

	if *programs {
		for _, name := range dist.Programs() {
			fmt.Println(name)
		}
		return
	}
	var opts []dist.ServeOption
	if *capacity > 0 {
		opts = append(opts, dist.WithCapacity(*capacity))
	}
	if *crashAfter > 0 {
		opts = append(opts, dist.WithCrashAfterShards(*crashAfter))
	}
	if *listen == "" {
		if err := dist.Serve(os.Stdin, os.Stdout, opts...); err != nil {
			if errors.Is(err, dist.ErrCrashInjected) {
				// The scheduled death: distinct exit code, quiet exit —
				// the coordinator's requeue path is what's under test.
				os.Exit(3)
			}
			fmt.Fprintf(os.Stderr, "rvworker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rvworker: listening on %s\n", l.Addr())
	if err := dist.ListenAndServe(l, opts...); err != nil {
		fmt.Fprintf(os.Stderr, "rvworker: %v\n", err)
		os.Exit(1)
	}
}
