package replica

import (
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
)

// NSService adapts a replica node to the same "NS" RPC service an
// unreplicated name server exposes, so clients (nsctl, benchmarks) talk to
// replicated and unreplicated daemons identically. Updates ack at the
// node's write quorum — W = 1 is the paper's ack-after-one-replica rule —
// and enquiries answer from the local member (use the Replica service's
// Read for bounded-staleness enquiries with a MinSeq floor).
type NSService struct {
	node *Node
}

// NewNSService returns the NS-compatible RPC service for a node.
func NewNSService(n *Node) *NSService { return &NSService{node: n} }

// Lookup serves the remote enquiry.
func (s *NSService) Lookup(args *nameserver.LookupArgs, reply *nameserver.LookupReply) error {
	v, err := s.node.Lookup(args.Name)
	reply.Value = v
	return err
}

// List serves the remote enquiry for a name's child labels.
func (s *NSService) List(args *nameserver.ListArgs, reply *nameserver.ListReply) error {
	labels, err := s.node.List(args.Name)
	reply.Labels = labels
	return err
}

// Enumerate browses a whole subtree remotely.
func (s *NSService) Enumerate(args *nameserver.EnumerateArgs, reply *nameserver.EnumerateReply) error {
	return s.node.Enumerate(args.Name, func(name, value string) error {
		reply.Names = append(reply.Names, name)
		reply.Values = append(reply.Values, value)
		return nil
	})
}

// Set serves the remote update, carrying the caller's trace through the
// local commit and on to the member pushes.
func (s *NSService) Set(args *nameserver.SetArgs, reply *nameserver.SetReply, sc obs.SpanContext) error {
	return s.node.SetTraced(args.Name, args.Value, sc)
}

// Delete serves the remote delete.
func (s *NSService) Delete(args *nameserver.DeleteArgs, reply *nameserver.DeleteReply, sc obs.SpanContext) error {
	return s.node.DeleteTraced(args.Name, sc)
}
