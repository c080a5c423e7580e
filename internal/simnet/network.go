package simnet

import "fmt"

// Node is one host in the simulated cluster. A node can be attached to
// several fabrics (e.g. cluster A nodes carry both a ConnectX DDR HCA and
// a Chelsio 10GigE NIC, like the paper's Intel Clovertown machines).
type Node struct {
	name string
	net  *Network
	id   int

	failed bool
}

// Name reports the node's name.
func (n *Node) Name() string { return n.name }

// Fail marks the node dead: fabrics stop delivering to or from it.
// Used by the fault-tolerance tests and example (paper §IV-A: one failing
// process must not take the others down).
func (n *Node) Fail() { n.failed = true }

// Network is the cluster: a set of nodes, the fabrics joining them and
// the executor that steps the actors living on them. The executor is
// the network's owner: nodes and fabrics added while other goroutines
// drive traffic are added under Executor.Enter.
type Network struct {
	nodes   []*Node
	fabrics map[string]*Fabric
	exec    *Executor
}

// NewNetwork returns an empty cluster.
func NewNetwork() *Network {
	return &Network{fabrics: make(map[string]*Fabric), exec: newExecutor()}
}

// Executor reports the cluster's executor.
func (nw *Network) Executor() *Executor { return nw.exec }

// AddNode creates a node with the given name.
func (nw *Network) AddNode(name string) *Node {
	n := &Node{name: name, net: nw, id: len(nw.nodes)}
	nw.nodes = append(nw.nodes, n)
	return n
}

// FabricSpec describes a switched fabric's physical characteristics.
type FabricSpec struct {
	// Name identifies the fabric ("ib", "eth10g", "eth1g").
	Name string
	// LinkBytesPerSec is the per-link signalling rate after encoding
	// overhead (e.g. IB QDR: 32 Gb/s data rate = 4e9 bytes/s).
	LinkBytesPerSec float64
	// Propagation is the one-way wire delay node→switch→node.
	Propagation Duration
	// SwitchDelay is the forwarding latency of the switch.
	SwitchDelay Duration
	// MTU is the largest frame the fabric carries in one unit; larger
	// transfers are serialized as multiple frames back-to-back (only
	// the per-frame pipeline effect is modelled, not per-frame cost —
	// protocol per-segment costs live in the transport layers).
	MTU int
}

// Fabric is one switched network: a single switch with a full-duplex link
// to every attached node. Each direction of each link is a Resource, so
// many clients hammering one server serialize on the server's downlink
// (requests) and uplink (responses) — the first-order contention effect
// in the paper's multi-client experiments (Fig 6).
type Fabric struct {
	spec FabricSpec
	net  *Network

	up   map[*Node]*Resource // node → switch
	down map[*Node]*Resource // switch → node

	// faults, when non-nil, makes DeliverFaulty lossy. Plain Deliver
	// (used by connection setup paths) is never affected.
	faults *FaultInjector
}

// AddFabric creates a fabric in the network. The name must be unique.
func (nw *Network) AddFabric(spec FabricSpec) *Fabric {
	if _, dup := nw.fabrics[spec.Name]; dup {
		panic(fmt.Sprintf("simnet: duplicate fabric %q", spec.Name))
	}
	if spec.MTU <= 0 {
		spec.MTU = 1 << 30
	}
	f := &Fabric{
		spec: spec,
		net:  nw,
		up:   make(map[*Node]*Resource),
		down: make(map[*Node]*Resource),
	}
	nw.fabrics[spec.Name] = f
	return f
}

// Spec returns the fabric's physical characteristics.
func (f *Fabric) Spec() FabricSpec { return f.spec }

// Executor reports the executor of the network the fabric belongs to;
// everything cabled to the fabric makes its mailboxes on it.
func (f *Fabric) Executor() *Executor { return f.net.exec }

// Attach connects a node to the fabric (plugs in a NIC/HCA).
func (f *Fabric) Attach(n *Node) {
	if _, ok := f.up[n]; ok {
		return
	}
	f.up[n] = NewResource(f.spec.Name + "/" + n.name + "/up")
	f.down[n] = NewResource(f.spec.Name + "/" + n.name + "/down")
}

// links returns the two resources for a node, or nil if unattached.
func (f *Fabric) links(n *Node) (up, down *Resource) {
	return f.up[n], f.down[n]
}

// ErrUnreachable is returned by Deliver when either end is unattached or
// has failed.
type ErrUnreachable struct {
	Fabric string
	From   string
	To     string
	Reason string
}

func (e *ErrUnreachable) Error() string {
	return fmt.Sprintf("simnet: %s: %s -> %s unreachable: %s", e.Fabric, e.From, e.To, e.Reason)
}

// Deliver computes the arrival time of a message of the given size sent
// from one node to another at virtual time sendAt. The message occupies
// the sender's uplink and the receiver's downlink for its serialization
// time; cut-through pipelining across frames is approximated by charging
// full serialization on each of the two links plus propagation once.
//
// Deliver models only the wire; per-message software/NIC costs belong to
// the transport layers (verbs, sockstream) that call it.
func (f *Fabric) Deliver(from, to *Node, sendAt Time, bytes int) (arrive Time, err error) {
	if from.failed {
		return 0, &ErrUnreachable{f.spec.Name, from.name, to.name, "sender failed"}
	}
	if to.failed {
		return 0, &ErrUnreachable{f.spec.Name, from.name, to.name, "receiver failed"}
	}
	upRes, _ := f.links(from)
	_, downRes := f.links(to)
	if upRes == nil || downRes == nil {
		return 0, &ErrUnreachable{f.spec.Name, from.name, to.name, "not attached"}
	}
	if bytes < 0 {
		bytes = 0
	}
	tx := BytesDuration(bytes, f.spec.LinkBytesPerSec)
	if from == to {
		// Loopback: no wire, just local copy time.
		return sendAt + tx, nil
	}
	// Sender uplink serialization.
	upStart := upRes.Acquire(sendAt, tx)
	atSwitch := upStart + tx + f.spec.Propagation/2 + f.spec.SwitchDelay
	// Receiver downlink serialization (store-and-forward at the switch for
	// the first frame, pipelined thereafter — approximated as one more
	// full serialization on the downlink).
	downStart := downRes.Acquire(atSwitch, tx)
	return downStart + tx + f.spec.Propagation/2, nil
}

// SetFaults installs (or, with nil, removes) a fault injector on the
// fabric. Only DeliverFaulty consults it; control-plane paths that use
// plain Deliver (CM handshakes, socket dials) stay lossless, matching
// real deployments where connection setup is retried at a higher layer.
func (f *Fabric) SetFaults(fi *FaultInjector) { f.faults = fi }

// DeliverFaulty is Deliver plus the fabric's fault model. With no
// injector installed (or on loopback) it is exactly Deliver — same
// arithmetic, same resource charges — so a lossless run is bit-identical
// to one that never heard of faults.
//
// A Dropped message charges the sender's uplink (the bytes left the
// NIC) but never touches the receiver's downlink; the returned time is
// when the fabric discarded it. A Corrupted message traverses the full
// path — both links are charged — and the returned time is when the
// receiver's NIC discards the bad frame. In both cases err is nil: the
// wire worked, the payload just didn't survive. Callers decide whether
// to retransmit.
func (f *Fabric) DeliverFaulty(from, to *Node, sendAt Time, bytes int) (arrive Time, outcome DeliveryOutcome, err error) {
	fi := f.faults
	if fi == nil || from == to {
		arrive, err = f.Deliver(from, to, sendAt, bytes)
		return arrive, Delivered, err
	}
	if from.failed {
		return 0, Delivered, &ErrUnreachable{f.spec.Name, from.name, to.name, "sender failed"}
	}
	if to.failed {
		return 0, Delivered, &ErrUnreachable{f.spec.Name, from.name, to.name, "receiver failed"}
	}
	upRes, _ := f.links(from)
	_, downRes := f.links(to)
	if upRes == nil || downRes == nil {
		return 0, Delivered, &ErrUnreachable{f.spec.Name, from.name, to.name, "not attached"}
	}
	if bytes < 0 {
		bytes = 0
	}
	outcome = fi.judge(from, to)
	tx := BytesDuration(bytes, f.spec.LinkBytesPerSec)
	upStart := upRes.Acquire(sendAt, tx)
	atSwitch := upStart + tx + f.spec.Propagation/2 + f.spec.SwitchDelay
	if outcome == Dropped {
		// Lost in the fabric: uplink was consumed, receiver never sees it.
		return atSwitch, Dropped, nil
	}
	downStart := downRes.Acquire(atSwitch, tx)
	return downStart + tx + f.spec.Propagation/2, outcome, nil
}

// Utilization reports busy time per link resource, keyed by resource name.
func (f *Fabric) Utilization() map[string]Duration {
	out := make(map[string]Duration, len(f.up)*2)
	for _, r := range f.up {
		busy, _ := r.Stats()
		out[r.name] = busy
	}
	for _, r := range f.down {
		busy, _ := r.Stats()
		out[r.name] = busy
	}
	return out
}
