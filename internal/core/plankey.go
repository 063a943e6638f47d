package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// PlanKey returns a canonical content hash of a compilation input: two
// inputs share a key exactly when they produce the same program. The key
// covers the statement, the machine (grid hierarchy, processor/memory kinds,
// node grouping), every tensor's name, shape, and placement, and the
// schedule's serialized command form. An input holds no data — a plan
// describes the task graph, not the values flowing through it — so every
// program compiled from it is data-free and binds data per execution
// (legion.Tape.Execute).
func PlanKey(in Input) string {
	var b strings.Builder
	b.WriteString("stmt:")
	if in.Stmt != nil {
		b.WriteString(in.Stmt.String())
	}
	b.WriteString("\nmachine:")
	if in.Machine != nil {
		fmt.Fprintf(&b, "%s ppn=%d", in.Machine, in.Machine.ProcsPerNode)
	}
	names := make([]string, 0, len(in.Tensors))
	for name := range in.Tensors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := in.Tensors[name]
		fmt.Fprintf(&b, "\ntensor:%s shape=%v placement=", name, t.Shape)
		if t.Placement != nil {
			b.WriteString(t.Placement.String())
		}
	}
	b.WriteString("\nschedule:")
	if in.Schedule != nil {
		b.WriteString(in.Schedule.String())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
