package netsim

import (
	"math"
	"net"
	"net/rpc"
	"time"

	"qtrade/internal/trading"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// RPCService adapts a Service to the net/rpc calling convention so a node can
// be served over TCP (see cmd/qtnode). Messages are gob-encoded by net/rpc,
// except the rows of an answer and the offers of a bid reply, which gob
// carries in the trading codec (trading.Rows, trading.Offers): a node of this
// build and one of an older build no longer share that wire format.
type RPCService struct {
	Svc Service
}

// RequestBids is the net/rpc method for RFBs.
func (r *RPCService) RequestBids(rfb *trading.RFB, reply *trading.BidReply) error {
	rep, err := r.Svc.RequestBids(*rfb)
	if err != nil {
		return err
	}
	*reply = rep
	return nil
}

// ImproveBids is the net/rpc method for improvement rounds.
func (r *RPCService) ImproveBids(req *trading.ImproveReq, reply *trading.BidReply) error {
	rep, err := r.Svc.ImproveBids(*req)
	if err != nil {
		return err
	}
	*reply = rep
	return nil
}

// Award is the net/rpc method for award notifications.
func (r *RPCService) Award(aw *trading.Award, reply *bool) error {
	if err := r.Svc.Award(*aw); err != nil {
		return err
	}
	*reply = true
	return nil
}

// Execute is the net/rpc method for purchased-answer delivery.
func (r *RPCService) Execute(req *trading.ExecReq, reply *trading.ExecResp) error {
	resp, err := r.Svc.Execute(*req)
	if err != nil {
		return err
	}
	*reply = resp
	return nil
}

// ServeRPC exposes a node service on a TCP address. It returns the listener
// (close it to stop) and serves connections on background goroutines.
func ServeRPC(addr string, name string, svc Service) (net.Listener, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName(name, &RPCService{Svc: svc}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln, nil
}

// RPCPeer is a trading.Peer speaking net/rpc to a remote node. Its calls
// are unbounded, exactly net/rpc's native behaviour: a caller bounds a call
// by running it under a trading.FaultPolicy with a CallTimeout, the one
// timer on a seller call.
type RPCPeer struct {
	Name   string // registered service name on the remote side
	client *rpc.Client
}

// DialPeer connects to a node served by ServeRPC.
func DialPeer(addr, name string) (*RPCPeer, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &RPCPeer{Name: name, client: c}, nil
}

// DialPeerTimeout is DialPeer with a bound on connection establishment: an
// unreachable or blackholed server fails the dial within timeout instead of
// hanging. It bounds only the dial.
func DialPeerTimeout(addr, name string, timeout time.Duration) (*RPCPeer, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &RPCPeer{Name: name, client: rpc.NewClient(conn)}, nil
}

// call performs one RPC.
func (p *RPCPeer) call(method string, args, reply any) error {
	return p.client.Call(p.Name+"."+method, args, reply)
}

// RequestBids implements trading.Peer.
func (p *RPCPeer) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	var reply trading.BidReply
	err := p.call("RequestBids", &rfb, &reply)
	return reply, err
}

// ImproveBids implements trading.Peer.
func (p *RPCPeer) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	var reply trading.BidReply
	err := p.call("ImproveBids", &req, &reply)
	return reply, err
}

// Award notifies the remote node of a win.
func (p *RPCPeer) Award(aw trading.Award) error {
	var ok bool
	return p.call("Award", &aw, &ok)
}

// Execute fetches a purchased answer.
func (p *RPCPeer) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	var resp trading.ExecResp
	err := p.call("Execute", &req, &resp)
	return resp, err
}

// Close releases the connection.
func (p *RPCPeer) Close() error { return p.client.Close() }
