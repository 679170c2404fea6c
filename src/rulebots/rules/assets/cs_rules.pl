% Doctrine shared by every hostage-rescue map: the standard fetch route
% (go to the hostage's waypoint while no enemy is in sight, then lead the
% hostage out), named so map layers can reuse it as a continuation.

approach_and_liberate(B, W) :- direct_approach(B, W).
