// Pipeline trace: watch two threads share the machine cycle by cycle.
// The trace shows the paper's mechanisms directly — interleaved fetch
// under True Round Robin, thread-blind issue, selective mispredict
// squash, and flexible commit.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/sdsp"
)

const src = `
; two threads, each summing its own range; thread 1's loop is longer
main:  tid  r1
       addi r2, r1, 2
       slli r2, r2, 2       ; iterations: 8 or 12
       addi r3, r0, 0
loop:  add  r3, r3, r2
       addi r2, r2, -1
       bne  r2, r0, loop
       slli r4, r1, 2
       li   r5, out
       add  r5, r5, r4
       sw   r3, 0(r5)
       halt
.data
out:   .space 8
`

func main() {
	obj, err := sdsp.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sdsp.DefaultConfig(2)
	m, err := sdsp.NewMachine(obj, cfg)
	if err != nil {
		log.Fatal(err)
	}

	m.Observe(sdsp.Trace(os.Stdout, 30)) // the first 30 cycles
	st, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("...\n(total %d cycles, %d instructions, IPC %.2f, %d mispredicts)\n",
		st.Cycles, st.Committed, st.IPC(), st.Mispredicts)
	out, err := obj.Symbol("out")
	if err != nil {
		log.Fatal(err)
	}
	for t := 0; t < 2; t++ {
		fmt.Printf("thread %d result: %d\n", t, m.Memory().LoadWord(out+uint32(t)*4))
	}
}
